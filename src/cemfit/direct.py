"""Direct maximization of the censored-data log-likelihood.

This is the reference route used to cross-check the EM and Monte Carlo EM
fixed points: one derivative-free simplex search from the start over an
unconstrained reparameterization (scale parameters on the log axis).  One
search suffices because every family's censored log-likelihood has a single
maximum: it is concave in (mu/sigma, 1/sigma) for the log-concave normal and
Laplace (Pratt, JASA 76:103, 1981) and in 1/beta**2 for the Rayleigh.

The Laplace likelihood needs one extra step.  Its location profile is
concave with kinks at the exact values, where the simplex stops only
approximately, and when the exact observations balance, an entire interval
between two data values attains the maximum.  Bisection on the exact
one-sided location slopes over the sorted exact values (O(log n) slope
evaluations, no likelihood evaluation) puts the location on the maximizing
kink, or on the midpoint of a flat top (the usual sample-median
convention).  The same slopes give the Laplace location score: at a kink it
is the minimum-norm subgradient element, 0 at a maximum, so ``converged``
holds there as at a smooth maximum.

``scipy.optimize`` is imported on the first direct fit, not with the
package: only this route needs it, and it is the largest import of
``cemfit``.  ``minimize`` and ``minimize_scalar`` here forward to SciPy's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, ensure_fittable, exact_sum, observed_loglik
from .distributions import Family, Laplace, ParamSet, Rayleigh
from .exceptions import NonConvergenceError, ParameterError
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


def minimize_scalar(*args, **kwargs):
    """``scipy.optimize.minimize_scalar``, imported on first use."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar
    return scipy_minimize_scalar(*args, **kwargs)


def _pack(params: ParamSet) -> np.ndarray:
    """Map to the unconstrained search space (the scale, last, on the log axis)."""
    *loc, scale = params.reported()
    return np.array([*loc, math.log(scale)])


def _unpack(cls: type, x: np.ndarray) -> ParamSet:
    *loc, log_scale = (float(v) for v in x)
    return cls.from_reported(*loc, math.exp(log_scale))


def _laplace_slopes(x: np.ndarray, c: np.ndarray, mu: float, sigma: float) -> tuple[float, float]:
    """Sigma times the left and right slopes of the Laplace log-likelihood in
    the location at ``mu``, with exact values ``x`` and bounds ``c`` sorted.

    An exact value counts +1 above ``mu``, -1 below it and +-1 at it (the
    kink); a bound counts +1 at or above ``mu`` and e**z / (2 - e**z) below
    it, z = (bound - mu) / sigma.  Each slope adds one integer to one
    correctly rounded sum, so its sign is exact when no bound lies below.
    """
    lo, hi = np.searchsorted(x, mu, "left"), np.searchsorted(x, mu, "right")
    below = int(np.searchsorted(c, mu, "left"))
    e = np.exp((c[:below] - mu) / sigma)
    smooth = exact_sum(e / (2.0 - e))
    counts = int(x.size - hi - lo + c.size - below)
    tied = int(hi - lo)
    return (counts + tied) + smooth, (counts - tied) + smooth


def loglik_gradient_norm(sample: CensoredSample, params: ParamSet) -> float:
    """Euclidean norm of the score at ``params``.

    Each component is a central difference in the reported coordinates
    (location and scale, not variance) with step 1e-6 times the coordinate's
    magnitude, except the Laplace location: it has kinks at the exact
    values, so its component is the minimum-norm element of the exact
    subgradient, 0 where the one-sided slopes bracket 0, else the slope
    nearer 0.
    """
    vec = list(params.reported())
    make = type(params).from_reported
    grads = []
    if isinstance(params, Laplace):
        left, right = _laplace_slopes(np.sort(sample.uncensored), np.sort(sample.censor_times),
                                      params.mu, params.sigma)
        grads.append((max(right, 0.0) + min(left, 0.0)) / params.sigma)
    for j in range(len(grads), len(vec)):
        h = 1e-6 * max(1.0, abs(vec[j]))
        # keep scale coordinates positive under perturbation
        if j == len(vec) - 1 and vec[j] - h <= 0.0:
            h = 0.5 * vec[j]
        hi, lo = list(vec), list(vec)
        hi[j] += h
        lo[j] -= h
        f_hi = observed_loglik(sample, make(*hi))
        f_lo = observed_loglik(sample, make(*lo))
        grads.append((f_hi - f_lo) / (2.0 * h))
    return float(np.sqrt(math.fsum(g * g for g in grads)))


def _canonicalize_laplace(sample: CensoredSample, best: Laplace) -> Laplace:
    """Put the location on the exact maximum of its profile at ``best.sigma``.

    The profile is concave with kinks at the exact values, so its slope is
    monotone: bisection over the sorted exact values finds the first kink
    whose right slope is <= 0.  If that slope is exactly 0 with no bound at
    or below the kink, the top is flat up to the next data value and the
    location is the segment midpoint (the usual sample-median convention).
    Else if the left slope is >= 0 the maximum is the kink itself; otherwise
    the slope crosses 0 inside a smooth segment and the simplex's location
    stays.  The scale is then re-optimized on the log axis at that location.
    """
    x, c = np.sort(sample.uncensored), np.sort(sample.censor_times)
    at = bisect.bisect_left(
        x, True, key=lambda v: _laplace_slopes(x, c, float(v), best.sigma)[1] <= 0.0)
    loc = best.mu
    if at < x.size:
        kink = float(x[at])
        left, right = _laplace_slopes(x, c, kink, best.sigma)
        if right == 0.0 and not np.any(c <= kink):
            loc = 0.5 * (kink + float(sample.w[sample.w > kink].min()))
        elif left >= 0.0:
            loc = kink
    t0 = math.log(best.sigma)
    res = minimize_scalar(
        lambda t: -observed_loglik(sample, Laplace(loc, math.exp(t))),
        bounds=(t0 - 5.0, t0 + 5.0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    refined = Laplace(loc, math.exp(float(res.x)))
    base = observed_loglik(sample, best)
    # points on the flat segment tie only up to rounding noise; keep the
    # canonical midpoint unless it is worse by more than ridge tolerance
    if observed_loglik(sample, refined) >= base - 1e-9 * (1.0 + abs(base)):
        return refined
    return best


def fit_direct(sample: CensoredSample, config: FitConfig) -> OptimizerReport:
    """Maximize the censored-data log-likelihood by one simplex search from
    ``config.start`` (default: the family's moment start); no other config
    field is consulted.  ``converged`` means the search succeeded and the
    dimensionless mean score ``gradient_norm * scale / n`` (scale: the last
    reported coordinate) is at most 1e-6.  Raises :class:`NonConvergenceError`
    (with the report attached as ``.report``) if the search does not converge.
    """
    if config.algorithm is not Algorithm.DIRECT:
        raise ParameterError(f"fit_direct called with algorithm {config.algorithm}")
    family = config.family
    ensure_fittable(sample, family)
    base = config.start if config.start is not None else default_start(sample, family)
    cls = type(base)

    def objective(x):
        try:
            return -observed_loglik(sample, _unpack(cls, x))
        except (ParameterError, OverflowError):
            return math.inf

    res = minimize(
        objective,
        _pack(base),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000, "maxfev": 10000},
    )
    argmax = _unpack(cls, res.x)
    if family is Family.LAPLACE:
        argmax = _canonicalize_laplace(sample, argmax)
    loglik = observed_loglik(sample, argmax)
    grad = loglik_gradient_norm(sample, argmax)
    # the score sums n terms in units of 1/scale, so this reads alike at any n or scale
    converged = bool(res.success) and grad * argmax.reported()[-1] / sample.n <= 1e-6
    report = OptimizerReport(argmax, loglik, int(res.nit), converged, grad)
    if not res.success:
        err = NonConvergenceError("simplex search did not converge")
        err.report = report
        raise err
    return report


def rayleigh_mle_closed_form(sample: CensoredSample) -> Rayleigh:
    """Exact censored-data MLE for the Rayleigh family.

    The score has a unique root: beta^2 = (sum of all w_i^2) / (2 m), where
    censored units enter through their bounds and m counts the exact
    observations.
    """
    ensure_fittable(sample, Family.RAYLEIGH)
    b2 = exact_sum(sample.w * sample.w) / (2.0 * sample.m)
    return Rayleigh(math.sqrt(b2))
