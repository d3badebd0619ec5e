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
``m_step(e_step(...))`` and stops once both reported parameters move less
than ``tol`` times the new sigma; :func:`cemfit.mcem.fit_mcem` passes its
family's Monte Carlo step on the sweep's own substream and a rule that never
stops, so its budget ends it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Normal, ParamSet, exact_sum, mills_ratio
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
    mu, sigma = params.mu, params.sigma
    h = mills_ratio((bounds - mu) / sigma)
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


def _iterate(sample: CensoredSample, config: FitConfig,
             step: Callable[[ParamSet, int], ParamSet],
             stop: Callable[[ParamSet, ParamSet], bool]) -> FitTrace:
    """The sweep loop of both EM routes: row 0 is the start, sweep s appends
    ``step(params, s)``, and the run ends converged once ``stop(new, old)``
    holds, else after ``config.resolved_max_iter()`` sweeps.  It looks up
    ``ensure_fittable``, ``default_start`` and ``observed_loglik`` in this
    module, where ``perfbench/tracing.py`` wraps them."""
    ensure_fittable(sample, config.family)
    params = config.start if config.start is not None else default_start(sample, config.family)
    trace = FitTrace(rows=[TraceRow(0, params, observed_loglik(sample, params))])
    for s in range(1, config.resolved_max_iter() + 1):
        new = step(params, s)
        trace.rows.append(TraceRow(s, new, observed_loglik(sample, new)))
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

    return _iterate(sample, config, lambda params, s: m_step(e_step(sample, params), sample.n),
                    moved_less_than_tol)
