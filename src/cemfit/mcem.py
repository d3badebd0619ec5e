"""Monte Carlo EM for censored normal, Laplace, and Rayleigh models.

Where the conditional expectations of the complete-data statistics have no
closed form, each censored unit's contribution is approximated by the
average over K draws from its left-truncated conditional distribution.  The
M-steps are then the complete-data MLE formulas applied to the augmented
sample:

* normal:   mean / variance of the n observed values plus the K-averaged
  draw totals;
* Laplace:  location = median of the augmented multiset (each observed value
  counted K times, each draw once), scale = mean absolute deviation about
  it, with draw deviations averaged over K;
* Rayleigh: scale^2 = (sum of squares, draws K-averaged) / (2n).

Draws are addressed by (seed, iteration, unit), so a fit is bit-reproducible
regardless of evaluation order, and every iteration uses fresh draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Family, Laplace, Normal, Rayleigh
from .exceptions import DegenerateDataError, ParameterError
from .fitting import Algorithm, FitConfig, FitTrace, TraceRow, default_start
from .streams import RandomStream
from .truncated import (
    sample_truncated_laplace,
    sample_truncated_normal,
    sample_truncated_rayleigh,
)

__all__ = [
    "MonteCarloAccumulator",
    "mcem_step_normal",
    "mcem_step_laplace",
    "mcem_step_rayleigh",
    "fit_mcem",
    "weighted_median",
]


def _weighted_select(values: np.ndarray, weights: np.ndarray, k: int) -> float:
    """k-th smallest (1-based) of the multiset where values[j] occurs weights[j] times.

    Iterative quickselect with a median-of-values pivot: the candidate set at
    least halves each round, so total work is linear in the input size.
    """
    v, w = values, weights
    while v.size > 1:
        pivot = float(np.partition(v, v.size // 2)[v.size // 2])
        less = v < pivot
        greater = v > pivot
        w_less = int(w[less].sum())
        w_equal = int(w[~less & ~greater].sum())
        if k <= w_less:
            v, w = v[less], w[less]
        elif k <= w_less + w_equal:
            return pivot
        else:
            k -= w_less + w_equal
            v, w = v[greater], w[greater]
    return float(v[0])


def weighted_median(values, weights) -> float:
    """Median of the multiset with integer multiplicities ``weights``.

    For an even total count the median is the average of the two middle
    order statistics.  Runs in linear time; the multiset is never
    materialized.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=np.int64)
    if v.shape != w.shape or v.ndim != 1:
        raise ParameterError("values and weights must be one-dimensional and equal length")
    if v.size == 0 or np.any(w < 0):
        raise ParameterError("weights must be nonnegative with a positive total")
    total = int(w.sum())
    if total == 0:
        raise ParameterError("weights must be nonnegative with a positive total")
    if total % 2:
        return _weighted_select(v, w, (total + 1) // 2)
    lo = _weighted_select(v, w, total // 2)
    hi = _weighted_select(v, w, total // 2 + 1)
    return 0.5 * (lo + hi)


@dataclass
class MonteCarloAccumulator:
    """Totals over the censored units' conditional draws.

    ``blocks`` holds one array of K draws per censored unit (original
    sample order); ``v1``/``v2`` are the grand totals of the draws and
    their squares.
    """

    v1: float
    v2: float
    blocks: list[np.ndarray]

    @classmethod
    def from_blocks(cls, blocks: list[np.ndarray]) -> "MonteCarloAccumulator":
        v1 = math.fsum(float(b.sum()) for b in blocks)
        v2 = math.fsum(float((b * b).sum()) for b in blocks)
        return cls(v1, v2, blocks)

    def abs_deviation(self, center: float) -> float:
        """Sum of |draw - center| over every draw."""
        return math.fsum(float(np.abs(b - center).sum()) for b in self.blocks)


def _draw_blocks(sample, k: int, stream: RandomStream, sampler, *params) -> list[np.ndarray]:
    """K draws ``sampler(*params, bound, u)`` per censored unit, one substream per unit.

    The steps pass this module's ``sample_truncated_*`` by name, so a wrapper
    installed on those names (``perfbench/tracing.py``) sees every draw.
    """
    blocks = []
    for idx, bound in zip(sample.censored_indices, sample.censor_times):
        u = stream.substream(int(idx)).uniforms(k)
        blocks.append(np.asarray(sampler(*params, float(bound), u)))
    return blocks


def mcem_step_normal(sample: CensoredSample, params: Normal, k: int,
                     stream: RandomStream) -> Normal:
    """One Monte Carlo EM sweep for the normal family.

    ``stream`` must be scoped to the current iteration (fresh draws every
    sweep); unit substreams are derived from it.
    """
    y = sample.uncensored
    acc = MonteCarloAccumulator.from_blocks(
        _draw_blocks(sample, k, stream, sample_truncated_normal, params.mu, params.sigma))
    n = sample.n
    mean = (math.fsum(y) + acc.v1 / k) / n
    var = (math.fsum(y * y) + acc.v2 / k) / n - mean * mean
    if not (var > 0.0):
        raise DegenerateDataError(f"update produced nonpositive variance {var:.3e}")
    return Normal(mean, var)


def mcem_step_laplace(sample: CensoredSample, params: Laplace, k: int,
                      stream: RandomStream) -> Laplace:
    """One Monte Carlo EM sweep for the Laplace family.

    The location update is the exact median of the augmented multiset
    (observed values with multiplicity K, draws with multiplicity 1); the
    scale update is the mean absolute deviation about the new location.
    """
    y = sample.uncensored
    acc = MonteCarloAccumulator.from_blocks(
        _draw_blocks(sample, k, stream, sample_truncated_laplace, params.mu, params.sigma))
    values = np.concatenate([y] + [b for b in acc.blocks]) if acc.blocks else y.copy()
    weights = np.concatenate([
        np.full(y.size, k, dtype=np.int64),
        np.ones(values.size - y.size, dtype=np.int64),
    ])
    loc = weighted_median(values, weights)
    scale = (math.fsum(np.abs(y - loc)) + acc.abs_deviation(loc) / k) / sample.n
    if not (scale > 0.0):
        raise DegenerateDataError(f"update produced nonpositive scale {scale:.3e}")
    return Laplace(loc, scale)


def mcem_step_rayleigh(sample: CensoredSample, params: Rayleigh, k: int,
                       stream: RandomStream) -> Rayleigh:
    """One Monte Carlo EM sweep for the Rayleigh family."""
    y = sample.uncensored
    acc = MonteCarloAccumulator.from_blocks(
        _draw_blocks(sample, k, stream, sample_truncated_rayleigh, params.beta))
    b2 = (math.fsum(y * y) + acc.v2 / k) / (2.0 * sample.n)
    if not (b2 > 0.0):
        raise DegenerateDataError(f"update produced nonpositive squared scale {b2:.3e}")
    return Rayleigh(math.sqrt(b2))


_STEPS = {
    Family.NORMAL: mcem_step_normal,
    Family.LAPLACE: mcem_step_laplace,
    Family.RAYLEIGH: mcem_step_rayleigh,
}


def fit_mcem(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Run Monte Carlo EM for ``config.max_iter`` sweeps (default 15).

    The iteration budget is the designed stopping rule; as a convenience the
    loop also stops early when the reported parameters move less than
    ``config.tol`` on three consecutive sweeps, which with the default tol
    effectively never triggers.  Runs with identical config and seed are
    bit-identical.
    """
    if config.algorithm is not Algorithm.MCEM:
        raise ParameterError(f"fit_mcem called with algorithm {config.algorithm}")
    ensure_fittable(sample, config.family)
    step = _STEPS[config.family]
    params = config.start if config.start is not None else default_start(sample, config.family)
    root = RandomStream(config.seed)
    trace = FitTrace(rows=[TraceRow(0, params, observed_loglik(sample, params))])
    max_iter = config.resolved_max_iter()
    small_changes = 0
    for s in range(1, max_iter + 1):
        new = step(sample, params, config.k_at(s), root.substream(s))
        trace.rows.append(TraceRow(s, new, observed_loglik(sample, new)))
        delta = max(abs(a - b) for a, b in zip(new.reported(), params.reported()))
        params = new
        small_changes = small_changes + 1 if delta < config.tol else 0
        if small_changes >= 3:
            break
    trace.converged = True
    return trace
