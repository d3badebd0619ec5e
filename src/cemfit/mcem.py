"""Monte Carlo EM for censored normal, Laplace, and Rayleigh models.

Where the conditional expectations of the complete-data statistics have no
closed form, each censored unit's contribution is approximated by the
average over K draws from its left-truncated conditional distribution.  The
M-steps are then the complete-data MLE formulas applied to the augmented
sample:

* normal:   the exact EM M-step (``em.m_step``) at the observed totals plus
  the K-averaged draw totals;
* Laplace:  location = median of the augmented multiset (each observed value
  counted K times, each draw once), scale = mean absolute deviation about
  it, with draw deviations averaged over K;
* Rayleigh: scale^2 = (sum of squares, draws K-averaged) / (2n).

Draws are addressed by (seed, iteration, unit), so a fit is bit-reproducible
regardless of evaluation order, and every iteration uses fresh draws.  A
sweep draws a chunk of censored units at a time (``CHUNK_DRAWS`` draws per
sampler call) and keeps per-unit running sums, so the normal and Rayleigh
steps hold two chunk-sized arrays, the chunk's uniforms and its draws,
whatever n and K are: each consumer overwrites a chunk's draws in place and
drops them before the next chunk is drawn.  The Laplace step holds the
draws of only the units whose bound lies below the exact value U that already
covers both median ranks (see :func:`mcem_step_laplace`); under Type-II and
fixed-time censoring with more than half the units exact that is none, and
it too holds two arrays.  The chunk size changes no draw and no trace byte.

:func:`fit_mcem` runs the sweep loop of exact EM, ``em._iterate``: its
``step`` is the family's Monte Carlo step on the sweep's substream of the
seed's stream, and its ``stop`` never holds, so every run takes its whole
budget.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

# ensure_fittable, observed_loglik, default_start: unused, patched by perfbench/tracing.py
from .censoring import CensoredSample, ensure_fittable, observed_loglik
from .distributions import Family, Laplace, Normal, Rayleigh, exact_sum
from .em import _iterate, m_step
from .exceptions import ParameterError
from .fitting import Algorithm, FitConfig, FitTrace, _integer, default_start
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


def weighted_median(values, k, singles=(), beyond=0) -> float:
    """Median of the multiset where each entry of ``values`` occurs ``k`` times,
    plus every entry of the arrays in ``singles`` once, plus ``beyond``
    members that the caller knows lie above both median ranks.

    For an even total count the median is the average of the two middle
    order statistics.  The multiset is never materialized: ``values`` are
    sorted, and a bisection over them finds the first value v whose count
    of members at most v, k·#(values <= v) + #(singles <= v), reaches the
    target rank.  That member is v itself unless the rank falls among the
    singles strictly between v and the value before it; those singles alone
    are then partitioned.  The ``beyond`` members are only counted, at the
    top of the order; a median rank that falls among them raises, since
    their values were never given.
    """
    k = _integer("k", k)
    beyond = _integer("beyond", beyond)
    h = np.asarray(values, dtype=float)
    if h.ndim != 1 or h.size == 0 or k < 1:
        raise ParameterError("values must be nonempty and one-dimensional, and k at least 1")
    if beyond < 0:
        raise ParameterError(f"beyond must be nonnegative, got {beyond}")
    h = np.sort(h)
    singles = [np.asarray(a, dtype=float).ravel() for a in singles]
    total = k * h.size + sum(p.size for p in singles) + beyond

    @functools.cache
    def members(v, side="right") -> int:
        """Members at most v, or below v for side "left"; each count is taken
        once, so the two median ranks' bisections share their probes."""
        below = np.less_equal if side == "right" else np.less
        return k * int(np.searchsorted(h, v, side)) + sum(
            int(np.count_nonzero(below(p, v))) for p in singles)

    def select(rank: int) -> float:
        if rank > total - beyond:
            raise ParameterError(f"median rank {rank} falls among the {beyond} members "
                                 "counted beyond the given values")
        # fewer than rank members lie at or below h[i - 1] < h[i] (none if i == 0)
        i = bisect.bisect_left(h, True, key=lambda v: members(v) >= rank)
        if i < h.size and members(h[i], "left") < rank:
            return float(h[i])
        # the rank falls among the singles strictly between h[i - 1] and h[i],
        # taken as a closed float interval that is unbounded where they are missing
        lo = np.nextafter(h[i - 1], np.inf) if i else -np.inf
        hi = np.nextafter(h[i], -np.inf) if i < h.size else np.inf
        inside = np.concatenate([p[(lo <= p) & (p <= hi)] for p in singles])
        j = rank - (members(h[i - 1]) if i else 0) - 1
        return float(np.partition(inside, j)[j])

    if total % 2:
        return select((total + 1) // 2)
    return 0.5 * (select(total // 2) + select(total // 2 + 1))


def _fsum_rows(parts: list[np.ndarray]) -> float:
    """Exactly rounded total of per-unit sums held as a list of arrays."""
    return exact_sum(np.concatenate(parts)) if parts else 0.0


def _row_square_sums(b: np.ndarray) -> np.ndarray:
    """Row sums of the squares of ``b``, which ``b`` holds afterwards."""
    return np.square(b, out=b).sum(axis=1)


def _row_sums_and_squares(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of ``b`` and of its squares, which ``b`` holds afterwards."""
    return b.sum(axis=1), _row_square_sums(b)


def _row_abs_deviations(b: np.ndarray, center: float) -> np.ndarray:
    """Row sums of |b - center|, which ``b`` holds afterwards."""
    return np.abs(np.subtract(b, center, out=b), out=b).sum(axis=1)


@dataclass
class MonteCarloAccumulator:
    """Totals over the censored units' conditional draws.

    ``v1``/``v2`` are the grand totals of the draws and their squares: the
    exactly rounded sums of each unit's row sums (``distributions.exact_sum``,
    equal to ``math.fsum``), so they do not depend on how the units were
    chunked or in which order they come.  The Laplace step sums its
    deviations with :meth:`abs_deviation`.

    Both take (units × K) blocks that nothing reads afterwards, overwrite
    each in place once its row sums are taken, and drop it before the next
    is drawn: ``map`` holds no block between calls, where a ``for`` loop
    would keep the last one alive while its successor is drawn.
    """

    v1: float
    v2: float

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "MonteCarloAccumulator":
        """Totals of the draws of ``blocks`` and of their squares; each block
        holds its squares afterwards."""
        sums = list(map(_row_sums_and_squares, blocks))
        return cls(_fsum_rows([s1 for s1, _ in sums]), _fsum_rows([s2 for _, s2 in sums]))

    @classmethod
    def abs_deviation(cls, blocks: Iterable[np.ndarray], center: float) -> float:
        """Sum of |draw - center| over every draw of ``blocks``; each block
        holds |draw - center| afterwards."""
        return _fsum_rows(list(map(_row_abs_deviations, blocks, repeat(center))))


# Draws per sampler call: a chunk covers max(1, CHUNK_DRAWS // K) censored
# units, so one float array of a chunk takes 64 KB for K <= 8192 and one
# unit's row, K * 8 bytes, above that.  A sweep holds two such arrays at a
# time, the chunk's uniforms and its draws.
CHUNK_DRAWS = 8192


def _draw_blocks(sample, k: int, stream: RandomStream, sampler, params,
                 rows=slice(None)) -> Iterator[np.ndarray]:
    """Chunks of draws ``sampler(params, bounds, u)``, one (units × K) block per call.

    ``rows`` selects censored units (an index or mask into ``censor_times``;
    all of them by default).  Row r of a chunk holds the K draws of one
    selected unit (original sample order), from that unit's own substream of
    ``stream``, so the draws depend neither on the chunk size nor on which
    other units are drawn with it.  The bounds go in positionally as a
    (units, 1) column, and the steps pass this module's ``sample_truncated_*``
    by name, so a wrapper installed on those names (``perfbench/tracing.py``)
    sees every draw and its bound.
    """
    idx, bounds = sample.censored_indices[rows], sample.censor_times[rows]
    per = max(1, CHUNK_DRAWS // k)
    for a in range(0, idx.size, per):
        # u stays bound across the yield until the next chunk's uniforms
        # replace it: freeing it sooner lets glibc trim the heap between
        # units and fault every row back in (ROADMAP, "Decided against")
        u = stream.unit_uniforms(idx[a:a + per], k)
        yield np.asarray(sampler(params, bounds[a:a + per, None], u))


def mcem_step_normal(sample: CensoredSample, params: Normal, k: int,
                     stream: RandomStream) -> Normal:
    """One Monte Carlo EM sweep for the normal family: the exact EM M-step
    (:func:`cemfit.em.m_step`) at the K-averaged draw totals.

    ``stream`` must be scoped to the current iteration (fresh draws every
    sweep); unit substreams are derived from it.
    """
    acc = MonteCarloAccumulator.from_blocks(
        _draw_blocks(sample, k, stream, sample_truncated_normal, params))
    return m_step(sample, acc.v1 / k, acc.v2 / k)


def mcem_step_laplace(sample: CensoredSample, params: Laplace, k: int,
                      stream: RandomStream) -> Laplace:
    """One Monte Carlo EM sweep for the Laplace family.

    The location update is the exact median of the augmented multiset
    (observed values with multiplicity K, draws with multiplicity 1); the
    scale update is the mean absolute deviation about the new location.

    Only draws at or below a median rank can move the median.  Let r =
    Kn//2 + 1 (the larger median rank for odd and even Kn), j = ceil(r/K),
    and U the j-th smallest observed value (U = inf when j exceeds their
    number).  The observed values up to U count Kj >= r members, so both
    ranks lie at or below U.  Every draw lies strictly above its bound, so a
    unit bounded at U or above only adds K members above both ranks: the
    median just counts them, and their draws are made after it and streamed
    into the deviation sum.  Only the units bounded below U are held; the
    deviation sum overwrites them after the median has read them.  Draws
    are addressed by unit and the deviation total is exactly rounded, so
    this split changes no result.
    """
    y, bounds = sample.uncensored, sample.censor_times
    j = -(-(k * sample.n // 2 + 1) // k)
    near = bounds < (np.partition(y, j - 1)[j - 1] if j <= y.size else np.inf)
    held = list(_draw_blocks(sample, k, stream, sample_truncated_laplace, params, rows=near))
    loc = weighted_median(y, k, held, beyond=k * (bounds.size - int(np.count_nonzero(near))))
    far = _draw_blocks(sample, k, stream, sample_truncated_laplace, params, rows=~near)
    dev = MonteCarloAccumulator.abs_deviation(chain(held, far), loc)
    return Laplace(loc, (exact_sum(np.abs(y - loc)) + dev / k) / sample.n)


def mcem_step_rayleigh(sample: CensoredSample, params: Rayleigh, k: int,
                       stream: RandomStream) -> Rayleigh:
    """One Monte Carlo EM sweep for the Rayleigh family: only the squares of
    the draws are summed."""
    v2 = _fsum_rows(list(map(_row_square_sums, _draw_blocks(
        sample, k, stream, sample_truncated_rayleigh, params))))
    return Rayleigh(math.sqrt((sample.sums[1] + v2 / k) / (2.0 * sample.n)))


_STEPS = {
    Family.NORMAL: mcem_step_normal,
    Family.LAPLACE: mcem_step_laplace,
    Family.RAYLEIGH: mcem_step_rayleigh,
}


def fit_mcem(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Run Monte Carlo EM for ``config.max_iter`` sweeps (default 15).

    The iteration budget is the stopping rule: every run takes all of its
    sweeps, and ``config.tol`` is not consulted.  Runs with identical config
    and seed are bit-identical.
    """
    if config.algorithm is not Algorithm.MCEM:
        raise ParameterError(f"fit_mcem called with algorithm {config.algorithm}")
    step = _STEPS[config.family]
    root = RandomStream(config.seed)
    trace = _iterate(sample, config,
                     lambda params, s: step(sample, params, config.k, root.substream(s)),
                     lambda new, old: False)
    trace.converged = True
    return trace
