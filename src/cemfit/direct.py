"""Direct maximization of the censored-data log-likelihood.

This is the reference route used to cross-check the EM and Monte Carlo EM
fixed points.  Every family's censored log-likelihood has a single maximum:
it is concave in (mu/sigma, 1/sigma) for the log-concave normal and Laplace
(Pratt, JASA 76:103, 1981) and in 1/beta**2 for the Rayleigh.

The Rayleigh maximum is closed-form (:func:`rayleigh_mle_closed_form`), so
no search runs for it.  The normal fit runs damped Newton in its concave
coordinates from the start, with the closed-form score and Hessian of
``Normal.concave_derivatives`` and a backtracking (Armijo) line search on
the observed log-likelihood; Newton converges quadratically near the
maximum, so a fit takes a handful of steps.

The Laplace likelihood has kinks at the exact values, so Newton does not
apply: one derivative-free simplex search runs from the start over (mu,
log sigma).  The simplex stops only approximately at a kink, and when the
exact observations balance, an entire interval between two data values
attains the maximum.  Bisection on the exact one-sided location slopes
(``Laplace.location_slopes``) over the sorted exact values (O(log n) slope
evaluations, no likelihood evaluation) puts the location on the maximizing
kink or mid flat top; ``Laplace.profile_scale`` gives the exact scale there.

The score behind ``converged`` is each family's analytic ``reported_score``;
for the Laplace location it is the minimum-norm subgradient element, 0 at a
kink that is a maximum.

``minimize`` forwards to SciPy's, imported on the first Laplace direct fit
only: no other route needs ``scipy.optimize``, the largest import of cemfit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Family, Laplace, Normal, ParamSet, Rayleigh, exact_sum
from .exceptions import ParameterError
from .fitting import Algorithm, FitConfig, default_start

__all__ = [
    "OptimizerReport",
    "fit_direct",
    "rayleigh_mle_closed_form",
    "loglik_gradient_norm",
]


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of a direct maximization."""

    argmax: ParamSet
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def loglik_gradient_norm(sample: CensoredSample, params: ParamSet) -> float:
    """Euclidean norm of the score at ``params``, in the reported coordinates
    (location and scale, not variance): the family's closed-form
    ``reported_score``."""
    return math.hypot(*params.reported_score(sample))


def _canonicalize_laplace(sample: CensoredSample, best: Laplace) -> Laplace:
    """Put the location on the exact maximum of its profile at ``best.sigma``.

    The profile is concave with kinks at the exact values, so its slope is
    monotone: bisection over the sorted exact values finds the first kink
    whose right slope is <= 0.  If that slope is exactly 0 with no bound at
    or below the kink, the top is flat up to the next data value and the
    location is the segment midpoint (the usual sample-median convention).
    Else if the left slope is >= 0 the maximum is the kink itself; otherwise
    the slope crosses 0 inside a smooth segment and the simplex's location
    stays.  The scale is the exact one there, so the result is not below ``best``.
    """
    x, c = np.sort(sample.uncensored), np.sort(sample.censor_times)
    at = bisect.bisect_left(
        x, True, key=lambda v: Laplace(float(v), best.sigma).location_slopes(x, c)[1] <= 0.0)
    loc = best.mu
    if at < x.size:
        kink = float(x[at])
        left, right = Laplace(kink, best.sigma).location_slopes(x, c)
        if right == 0.0 and not np.any(c <= kink):
            loc = 0.5 * (kink + float(sample.w[sample.w > kink].min()))
        elif left >= 0.0:
            loc = kink
    return Laplace(loc, Laplace.profile_scale(loc, x, c))


def _fit_laplace(sample: CensoredSample, start: Laplace) -> tuple[Laplace, int, bool]:
    """One simplex search over (mu, log sigma), then the exact location."""

    def objective(x):
        try:
            return -observed_loglik(sample, Laplace(float(x[0]), math.exp(float(x[1]))))
        except (ParameterError, OverflowError):
            return math.inf

    res = minimize(
        objective,
        np.array([start.mu, math.log(start.sigma)]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000, "maxfev": 10000},
    )
    best = Laplace(float(res.x[0]), math.exp(float(res.x[1])))
    return _canonicalize_laplace(sample, best), int(res.nit), bool(res.success)


# Newton steps a fit may take; near the maximum each step about doubles the
# correct digits: fits from the moment start take about 5 steps, and the
# farthest starts tested (1e8 to 1e10 scales off) under 60.
_NEWTON_MAX_STEPS = 100
# Armijo constant and the most step halvings tried in one line search.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def _newton_direction(params: Normal,
                      sample: CensoredSample) -> tuple[tuple[float, float] | None, float]:
    """The Newton step (-H)^-1 g in the concave coordinates at ``params`` and
    the Newton decrement g . step; ``(None, nan)`` where -H is not positive
    definite to working precision.  The derivative arrays live only in here,
    so none is held while the line search evaluates the likelihood."""
    g, ((a, b), (_, d)) = params.concave_derivatives(sample)
    det = a * d - b * b
    if not (a < 0.0 and det > 0.0):
        return None, math.nan
    step = ((b * g[1] - d * g[0]) / det, (b * g[0] - a * g[1]) / det)
    return step, math.fsum(gi * si for gi, si in zip(g, step))


def _try_point(sample: CensoredSample, point: tuple[float, float]):
    """Parameters at concave coordinates ``point`` and their log-likelihood;
    ``(None, -inf)`` if they are invalid, as the Armijo test then rejects
    them (it rejects a nan log-likelihood as well)."""
    try:
        params = Normal.from_concave(*point)
        return params, observed_loglik(sample, params)
    except (ParameterError, OverflowError):
        return None, -math.inf


def _fit_newton(sample: CensoredSample, start: Normal) -> tuple[Normal, int, bool]:
    """Damped Newton in the normal family's concave coordinates from ``start``.

    Each step backtracks from the full Newton step by halving until the
    log-likelihood rises by at least ``_ARMIJO`` times the predicted rise.
    The search ends when the Newton decrement is at most
    1e-15 * (1 + |loglik|), taking that last full step, or when no step
    along the Newton direction raises the log-likelihood (the point is then
    a maximum to working precision).  Returns the last point, the number of
    steps taken and whether the search ended; it has not after
    ``_NEWTON_MAX_STEPS`` steps or where the Hessian turns singular, as on a
    sample whose likelihood has no maximum.
    """
    params, point = start, start.to_concave()
    loglik = observed_loglik(sample, params)
    for steps in range(_NEWTON_MAX_STEPS):
        step, decrement = _newton_direction(params, sample)
        if step is None:
            return params, steps, False
        if decrement <= 1e-15 * (1.0 + abs(loglik)):
            return Normal.from_concave(*(p + s for p, s in zip(point, step))), steps + 1, True
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = tuple(p + alpha * s for p, s in zip(point, step))
            candidate, value = _try_point(sample, trial)
            if value >= loglik + _ARMIJO * alpha * decrement:
                params, point, loglik = candidate, trial, value
                break
            alpha *= 0.5
        else:
            return params, steps, True
    return params, _NEWTON_MAX_STEPS, False


def fit_direct(sample: CensoredSample, config: FitConfig) -> OptimizerReport:
    """Maximize the censored-data log-likelihood from ``config.start``
    (default: the family's moment start): damped Newton for the normal
    family, one simplex search plus the exact location for Laplace; no other
    config field is consulted.  The Rayleigh maximum is unique and closed-form,
    so it ignores the start and reports 0 iterations.  ``converged`` means
    the search ended and the dimensionless mean score ``gradient_norm * scale
    / n`` (scale: the last reported coordinate) is at most 1e-6.  A search
    that does not end (the simplex at its iteration cap, Newton at its step
    cap or a singular Hessian) is reported with ``converged`` False at its
    last point, as an EM trace that runs out of sweeps is; nothing is raised.
    """
    if config.algorithm is not Algorithm.DIRECT:
        raise ParameterError(f"fit_direct called with algorithm {config.algorithm}")
    family = config.family
    if family is Family.RAYLEIGH:
        argmax, iterations, ended = rayleigh_mle_closed_form(sample), 0, True
    else:
        ensure_fittable(sample, family)
        start = config.start if config.start is not None else default_start(sample, family)
        search = _fit_laplace if family is Family.LAPLACE else _fit_newton
        argmax, iterations, ended = search(sample, start)
    loglik = observed_loglik(sample, argmax)
    grad = loglik_gradient_norm(sample, argmax)
    # the score sums n terms in units of 1/scale, so this reads alike at any n or scale
    converged = ended and grad * argmax.reported()[-1] / sample.n <= 1e-6
    return OptimizerReport(argmax, loglik, iterations, converged, grad)


def rayleigh_mle_closed_form(sample: CensoredSample) -> Rayleigh:
    """Exact censored-data MLE for the Rayleigh family.

    The score has a unique root: beta^2 = (sum of all w_i^2) / (2 m), where
    censored units enter through their bounds and m counts the exact
    observations.
    """
    ensure_fittable(sample, Family.RAYLEIGH)
    b2 = exact_sum(sample.w * sample.w) / (2.0 * sample.m)
    return Rayleigh(math.sqrt(b2))
