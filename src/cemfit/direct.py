"""Direct maximization of the censored-data log-likelihood.

This is the reference route used to cross-check the EM and Monte Carlo EM
fixed points: one derivative-free simplex search from the start over an
unconstrained reparameterization (scale parameters on the log axis).  One
search suffices because every family's censored log-likelihood has a single
maximum: it is concave in (mu/sigma, 1/sigma) for the log-concave normal and
Laplace (Pratt, JASA 76:103, 1981) and in 1/beta**2 for the Rayleigh.

The Laplace likelihood needs one extra step.  Its location profile is
piecewise smooth with kinks at the data values, and when the exact
observations balance, an entire interval between two adjacent order
statistics attains the maximum.  The simplex stops somewhere on that flat
segment; the result is canonicalized to the segment midpoint (the usual
sample-median convention) so the reported location is well defined.

``scipy.optimize`` is imported on the first direct fit, not with the
package: only this route needs it, and it is the largest import of
``cemfit``.  ``minimize`` and ``minimize_scalar`` here forward to SciPy's.
"""

from __future__ import annotations

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


def loglik_gradient_norm(sample: CensoredSample, params: ParamSet) -> float:
    """Euclidean norm of the central-difference score at ``params``.

    Differences are taken in the reported coordinates (location and scale,
    not variance) with step 1e-6 times the coordinate's magnitude.
    """
    vec = list(params.reported())
    make = type(params).from_reported
    grads = []
    for j in range(len(vec)):
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
    """Pin the location to the midpoint of its flat maximizing segment.

    The location profile at fixed scale is concave with kinks at the data
    values; candidates are evaluated there and a flat top (within relative
    1e-9 of the best) is replaced by its midpoint.  The scale is then
    re-optimized on the log axis at the pinned location.
    """
    candidates = np.unique(np.concatenate([sample.w, [best.mu]]))
    values = np.array([
        observed_loglik(sample, Laplace(float(c), best.sigma)) for c in candidates
    ])
    top = values.max()
    flat = candidates[values >= top - 1e-9 * (1.0 + abs(top))]
    loc = 0.5 * (flat.min() + flat.max()) if flat.size > 1 else float(candidates[np.argmax(values)])
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
