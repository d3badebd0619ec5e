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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Family, Normal, exact_sum, mills_ratio
from .exceptions import DegenerateDataError, ParameterError
from .fitting import Algorithm, FitConfig, FitTrace, TraceRow, default_start

__all__ = ["NormalSuffStats", "e_step", "m_step", "fit_em"]


@dataclass(frozen=True)
class NormalSuffStats:
    """Expected complete-data sufficient statistics.

    ``t1``/``t2`` are the observed sum and sum of squares; ``s1``/``s2`` are
    the conditional expectations contributed by the censored units.
    """

    t1: float
    t2: float
    s1: float
    s2: float


def e_step(sample: CensoredSample, params: Normal) -> NormalSuffStats:
    """Expected sufficient statistics given the sample and current parameters."""
    bounds = sample.censor_times
    t1, t2, _ = sample.sums
    if bounds.size == 0:
        return NormalSuffStats(t1, t2, 0.0, 0.0)
    mu, sigma = params.mu, params.sigma
    h = np.atleast_1d(np.asarray(mills_ratio((bounds - mu) / sigma)))
    s1 = exact_sum(mu + sigma * h)
    s2 = exact_sum(mu * mu + params.sigma2 + (mu + bounds) * sigma * h)
    return NormalSuffStats(t1, t2, s1, s2)


def m_step(stats: NormalSuffStats, n: int) -> Normal:
    """Complete-data MLE at the expected sufficient statistics."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    mean = (stats.t1 + stats.s1) / n
    var = (stats.t2 + stats.s2) / n - mean * mean
    if not (var > 0.0):
        raise DegenerateDataError(
            f"update produced nonpositive variance {var:.3e}; sample is degenerate"
        )
    return Normal(mean, var)


def fit_em(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Run the closed-form EM iteration (``FitConfig`` allows it for the normal family only).

    Stops when both reported parameters move less than ``config.tol`` times
    the new sigma between sweeps, so the rule reads alike in any units, or
    after ``max_iter`` sweeps (non-convergence is flagged on the trace, not
    raised).  Row 0 of the trace is the starting point.
    """
    if config.algorithm is not Algorithm.EM:
        raise ParameterError(f"fit_em called with algorithm {config.algorithm}")
    ensure_fittable(sample, Family.NORMAL)
    params = config.start if config.start is not None else default_start(sample, Family.NORMAL)
    trace = FitTrace(rows=[TraceRow(0, params, observed_loglik(sample, params))])
    max_iter = config.resolved_max_iter()
    for s in range(1, max_iter + 1):
        new = m_step(e_step(sample, params), sample.n)
        trace.rows.append(TraceRow(s, new, observed_loglik(sample, new)))
        delta = max(abs(a - b) for a, b in zip(new.reported(), params.reported()))
        params = new
        if delta < config.tol * new.sigma:
            trace.converged = True
            break
    return trace
