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
apply, and when the exact observations balance, an entire interval between
two data values attains the maximum.  Its location profile
p(mu) = l(mu, ``Laplace.profile_scale``(mu)) is quasi-concave, since l is
jointly concave in (mu/sigma, 1/sigma) (Boyd & Vandenberghe, *Convex
Optimization*, 2004, sec. 2.3.3), and by the envelope theorem its one-sided
slopes are ``Laplace.location_slopes`` at (mu, profile_scale(mu)).  One
bisection of their sign, over the sorted exact values and then inside a
smooth segment, finds the exact maximizing kink, flat-top midpoint or root;
it reads no start and evaluates no likelihood.

The score behind ``converged`` is each family's analytic ``reported_score``;
for the Laplace location it is the minimum-norm subgradient element, 0 at a
kink that is a maximum.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Family, Laplace, Normal, ParamSet, Rayleigh, exact_sum
from .em import _loglik_at
from .exceptions import ParameterError
from .fitting import Algorithm, FitConfig, FitTrace, TraceRow, default_start

__all__ = [
    "fit_direct",
    "rayleigh_mle_closed_form",
    "loglik_gradient_norm",
]


def minimize(*args, **kwargs):
    """SciPy's ``minimize``; no fit calls it, but perfbench/tracing.py patches it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def loglik_gradient_norm(sample: CensoredSample, params: ParamSet) -> float:
    """Euclidean norm of the score at ``params``, in the reported coordinates
    (location and scale, not variance): the family's closed-form
    ``reported_score``."""
    return math.hypot(*params.reported_score(sample))


def _fit_laplace(sample: CensoredSample) -> tuple[Laplace, int]:
    """The exact maximum of the Laplace location profile (module docstring).

    The first exact value whose right slope is <= 0 is a flat top's lower end
    if that slope is 0 with no bound at or below it (the location is then the
    midpoint up to the next data value), else the maximum if its left slope
    is >= 0.  Otherwise the root lies in the smooth segment below it, or above
    every exact value, bracketed by steps that start at the scale and double,
    and bisection ends at two adjacent floats: the one whose slope is nearer
    0 is kept.  Returns the fit and the number of profile evaluations.
    """
    x, (_, c) = sample._ascending_exact, sample._ascending_bounds
    evals = 0

    def profile(mu: float) -> tuple[Laplace, tuple[float, float]]:
        nonlocal evals
        evals += 1
        params = Laplace(mu, Laplace.profile_scale(mu, x, c))
        return params, params.location_slopes(x, c)

    at = bisect.bisect_left(x, True, key=lambda v: profile(float(v))[1][1] <= 0.0)
    if at < x.size:
        kink, (left, right) = profile(float(x[at]))
        if right == 0.0 and not np.any(c <= kink.mu):
            top = float(sample.w[sample.w > kink.mu].min())
            return profile(0.5 * (kink.mu + top))[0], evals
        if left >= 0.0:
            return kink, evals
        (low, (_, rise)), high, fall = profile(float(x[at - 1])), kink, left
    else:
        low, (_, rise) = profile(float(x[-1]))
        step = low.sigma
        while True:
            high, (fall, _) = profile(low.mu + step)
            if fall <= 0.0:
                break
            low, rise, step = high, fall, 2.0 * step
    while low.mu < (mid := 0.5 * (low.mu + high.mu)) < high.mu:
        point, (slope, _) = profile(mid)
        if slope > 0.0:
            low, rise = point, slope
        else:
            high, fall = point, slope
    return (low if rise < -fall else high), evals


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
    definite to working precision or g . step is not finite.  The derivative
    arrays live only in here, so none is held while the line search runs."""
    g, ((a, b), (_, d)) = params.concave_derivatives(sample)
    det = a * d - b * b
    if not (a < 0.0 and det > 0.0):
        return None, math.nan
    step = ((b * g[1] - d * g[0]) / det, (b * g[0] - a * g[1]) / det)
    # one correctly rounded addition, as math.fsum of two terms, but inf, not a raise, on overflow
    decrement = g[0] * step[0] + g[1] * step[1]
    return (step, decrement) if math.isfinite(decrement) else (None, math.nan)


def _try_point(sample: CensoredSample, point: tuple[float, float]):
    """Parameters at concave coordinates ``point`` and their log-likelihood;
    ``(None, -inf)``, which the Armijo test rejects, where ``_loglik_at`` refuses them."""
    try:
        return _loglik_at(sample, "trial", lambda: Normal.from_concave(*point))
    except ParameterError:
        return None, -math.inf


def _fit_newton(sample: CensoredSample, start: Normal) -> tuple[Normal, float, int, bool]:
    """Damped Newton in the normal family's concave coordinates from ``start``.

    Each step backtracks from the full Newton step by halving until the
    log-likelihood rises, by at least ``_ARMIJO`` times the predicted rise
    (near the maximum that bound can round to the current value, so the rise
    must be strict as well).  The search ends when the Newton decrement is at
    most 1e-15 * (1 + |loglik|), taking that last full step unless it lowers
    the log-likelihood, or when no step along the Newton direction raises
    the log-likelihood (the point is then a maximum to working precision).
    Returns the last point, its log-likelihood, the number of steps taken
    and whether the search ended; it has not after ``_NEWTON_MAX_STEPS``
    steps or where the Hessian turns singular, as on a sample whose
    likelihood has no maximum.
    """
    (params, loglik), point = _loglik_at(sample, "start", lambda: start), start.to_concave()
    for steps in range(_NEWTON_MAX_STEPS):
        step, decrement = _newton_direction(params, sample)
        if step is None:
            return params, loglik, steps, False
        if decrement <= 1e-15 * (1.0 + abs(loglik)):
            full, value = _try_point(sample, tuple(p + s for p, s in zip(point, step)))
            if value >= loglik:
                return full, value, steps + 1, True
            return params, loglik, steps, True
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = tuple(p + alpha * s for p, s in zip(point, step))
            candidate, value = _try_point(sample, trial)
            if value > loglik and value >= loglik + _ARMIJO * alpha * decrement:
                params, point, loglik = candidate, trial, value
                break
            alpha *= 0.5
        else:
            return params, loglik, steps, True
    return params, loglik, _NEWTON_MAX_STEPS, False


@np.errstate(all="ignore")
def fit_direct(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Maximize the censored-data log-likelihood: damped Newton from
    ``config.start`` (default: the moment start) for the normal family, the
    profile bisection for Laplace, the closed form for Rayleigh; no other
    config field is read.  Returns a one-row trace whose ``s`` (and so
    ``iterations``) counts Newton steps, Laplace profile evaluations or 0.
    ``converged`` means the search ended and the mean score
    ``gradient_norm * scale / n`` (scale: the last reported coordinate) is at
    most 1e-6; a Newton search cut at its step cap or a singular Hessian is
    reported unconverged at its last point, as an EM trace is; nothing raises.
    NumPy's warnings are off: a non-finite value ends the search or is refused.
    """
    if config.algorithm is not Algorithm.DIRECT:
        raise ParameterError(f"fit_direct called with algorithm {config.algorithm}")
    family = config.family
    if family is Family.NORMAL:
        ensure_fittable(sample, family)
        start = config.start if config.start is not None else default_start(sample, family)
        argmax, loglik, iterations, ended = _fit_newton(sample, start)
    else:
        if family is Family.LAPLACE:
            ensure_fittable(sample, family)
            argmax, iterations = _fit_laplace(sample)
        else:
            argmax, iterations = rayleigh_mle_closed_form(sample), 0
        loglik, ended = observed_loglik(sample, argmax), True
    grad = loglik_gradient_norm(sample, argmax)
    # the score sums n terms in units of 1/scale, so this reads alike at any n or scale
    converged = ended and grad * argmax.reported()[-1] / sample.n <= 1e-6
    return FitTrace([TraceRow(iterations, argmax, loglik)], converged, grad)


def rayleigh_mle_closed_form(sample: CensoredSample) -> Rayleigh:
    """Exact censored-data MLE for the Rayleigh family.

    The score has a unique root: beta^2 = (sum of all w_i^2) / (2 m), where
    censored units enter through their bounds and m counts the exact
    observations.
    """
    ensure_fittable(sample, Family.RAYLEIGH)
    b2 = exact_sum(sample.w * sample.w) / (2.0 * sample.m)
    return Rayleigh(math.sqrt(b2))
