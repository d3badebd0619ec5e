"""Closed-form EM iteration for the right-censored normal model.

The complete-data sufficient statistics are the sum and sum of squares of
all n latent values.  Their conditional expectations given the censored
sample split into the observed totals (t1, t2) and the censored
contributions (s1, s2), which are available in closed form through the
normal hazard (Mills ratio):

    E[Z | Z > R]   = mu + sigma * h(a)
    E[Z^2 | Z > R] = mu^2 + sigma^2 + (mu + R) * sigma * h(a)

with a = (R - mu) / sigma and h the standard normal hazard, exact for any
a >= 0.  The M-step is the complete-data MLE at those expectations, so each
sweep can only increase the observed-data log-likelihood; Monte Carlo EM
reuses it on draw averages.

Both EM routes run one sweep loop, :func:`_iterate`, and differ only in the
``step`` and ``stop`` they pass it.  :func:`fit_em` passes the exact sweep
``m_step(sample, *e_step(...))`` and stops once both reported parameters move less
than ``tol`` times the new sigma; :func:`cemfit.mcem.fit_mcem` passes its
family's Monte Carlo step on the sweep's own substream and a rule that never
stops, so its budget ends it.  The start and each sweep's update, and the
direct route's Newton trials, are checked by one guard, :func:`_loglik_at`.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Normal, ParamSet, exact_sum, mills_ratio
from .exceptions import ParameterError
from .fitting import Algorithm, FitConfig, FitTrace, TraceRow, default_start

__all__ = ["e_step", "m_step", "fit_em"]


def e_step(sample: CensoredSample, params: Normal) -> tuple[float, float]:
    """The censored units' expected sum and sum of squares (s1, s2) given
    the current parameters."""
    bounds = sample.censor_times
    mu, sigma = params.mu, params.sigma
    h = mills_ratio((bounds - mu) / sigma)
    s1 = exact_sum(mu + sigma * h)
    s2 = exact_sum(mu * mu + params.sigma2 + (mu + bounds) * sigma * h)
    return s1, s2


def m_step(sample: CensoredSample, s1: float, s2: float) -> Normal:
    """Complete-data MLE at the observed totals of ``sample`` plus the
    censored units' expected sum ``s1`` and sum of squares ``s2``."""
    t1, t2, _ = sample.sums
    n = sample.n
    if n < 1:
        raise ParameterError("n must be at least 1")
    mean = (t1 + s1) / n
    return Normal(mean, (t2 + s2) / n - mean * mean)


def _loglik_at(sample: CensoredSample, label: str,
               build: Callable[[], ParamSet]) -> tuple[ParamSet, float]:
    """``build()`` (the start, a sweep's update or a Newton trial) and its observed
    log-likelihood.  An iterate that is no valid parameter set, or whose log-likelihood
    overflows or is not finite, is refused by one ``ParameterError`` led by ``label``."""
    params = None
    try:
        params = build()
        loglik = observed_loglik(sample, params)
    except (ArithmeticError, ValueError) as err:
        if params is None:
            raise ParameterError(f"{label} {err}") from None
        loglik = math.nan
    if not math.isfinite(loglik):
        raise ParameterError(f"{label} {params!r} has no finite log-likelihood on this sample")
    return params, loglik


@np.errstate(all="ignore")
def _iterate(sample: CensoredSample, config: FitConfig,
             step: Callable[[ParamSet, int], ParamSet],
             stop: Callable[[ParamSet, ParamSet], bool]) -> FitTrace:
    """The sweep loop of both EM routes: row 0 is the start, sweep s appends
    ``step(params, s)``, and the run ends converged once ``stop(new, old)`` holds, else
    after ``config.resolved_max_iter()`` sweeps.  NumPy's warnings are off: every
    non-finite value they announce is refused by name.  It looks up ``ensure_fittable``,
    ``default_start`` and ``observed_loglik`` here, where ``perfbench/tracing.py`` wraps them."""
    ensure_fittable(sample, config.family)
    params = config.start if config.start is not None else default_start(sample, config.family)
    trace = FitTrace(rows=[TraceRow(0, *_loglik_at(sample, "start", lambda: params))])
    for s in range(1, config.resolved_max_iter() + 1):
        new, loglik = _loglik_at(sample, f"sweep {s}:", lambda: step(params, s))
        trace.rows.append(TraceRow(s, new, loglik))
        if stop(new, params):
            trace.converged = True
            break
        params = new
    return trace


def fit_em(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Run the closed-form EM iteration (``FitConfig`` allows it for the normal family only).

    Stops when both reported parameters move less than ``config.tol`` times
    the new sigma between sweeps, so the rule reads alike in any units, or
    after ``max_iter`` sweeps (non-convergence is flagged on the trace, not
    raised).  Row 0 of the trace is the starting point.
    """
    if config.algorithm is not Algorithm.EM:
        raise ParameterError(f"fit_em called with algorithm {config.algorithm}")

    def moved_less_than_tol(new: Normal, old: Normal) -> bool:
        delta = max(abs(a - b) for a, b in zip(new.reported(), old.reported()))
        return delta < config.tol * new.sigma

    return _iterate(sample, config, lambda params, s: m_step(sample, *e_step(sample, params)),
                    moved_less_than_tol)
