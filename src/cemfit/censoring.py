"""Right-censored samples: container, likelihood, validation, and CSV I/O.

A sample is a list of pairs (w_i, delta_i): delta_i = 1 means w_i is an
exact observation, delta_i = 0 means the true value is only known to exceed
w_i.  Type-II censored experiments (stop after the r-th failure) reduce to
this representation with every unobserved unit censored at the largest
observed order statistic.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from functools import cached_property
from typing import Iterable

import numpy as np

from .distributions import Family, ParamSet, exact_sum
from .exceptions import DataError

__all__ = [
    "CensoredSample",
    "from_type2",
    "observed_loglik",
    "validate",
    "ensure_fittable",
    "read_censored_csv",
    "write_censored_csv",
]


class CensoredSample:
    """Immutable right-censored sample.

    Parameters
    ----------
    w : array_like of float
        Observed values (exact or censoring times).
    delta : array_like of int
        Censoring indicators; 1 for exact, 0 for right-censored.

    Construction is deliberately permissive about the sample's *content*
    (``validate`` reports problems such as out-of-range indicators or an
    all-censored sample); only the structure is enforced here.
    """

    def __init__(self, w, delta):
        w = np.atleast_1d(np.asarray(w, dtype=float)).copy()
        delta = np.atleast_1d(np.asarray(delta)).copy()
        if w.ndim != 1 or delta.ndim != 1:
            raise DataError("w and delta must be one-dimensional")
        if w.shape != delta.shape:
            raise DataError(f"w and delta differ in length: {w.size} vs {delta.size}")
        if delta.size and not np.issubdtype(delta.dtype, np.integer):
            try:
                integral = np.all(delta == np.floor(delta))
            except TypeError:  # strings and other non-numeric entries
                integral = False
            if not integral:
                raise DataError("delta must contain integers")
        delta = delta.astype(np.int64)
        observed, censored = delta == 1, delta == 0
        self._w = w
        self._delta = delta
        self._uncensored = w[observed]
        self._censor_times = w[censored]
        self._censored_indices = np.nonzero(censored)[0]
        self._m = int(np.count_nonzero(observed))
        for a in (w, delta, self._uncensored, self._censor_times, self._censored_indices):
            a.setflags(write=False)

    @property
    def w(self) -> np.ndarray:
        return self._w

    @property
    def delta(self) -> np.ndarray:
        return self._delta

    @property
    def n(self) -> int:
        """Total number of units."""
        return self._w.size

    @property
    def m(self) -> int:
        """Number of exactly observed units."""
        return self._m

    @property
    def uncensored(self) -> np.ndarray:
        """Values observed exactly (read-only, computed once)."""
        return self._uncensored

    @property
    def censor_times(self) -> np.ndarray:
        """Censoring bounds of the unobserved units (read-only, computed once)."""
        return self._censor_times

    @property
    def censored_indices(self) -> np.ndarray:
        """Original positions of the censored units (stable unit labels)."""
        return self._censored_indices

    @cached_property
    def sums(self) -> tuple[float, float, float]:
        """Correctly rounded sums of the exact values, their squares and the
        squared bounds, computed once: the data terms of scores and M-steps."""
        y, c = self._uncensored, self._censor_times
        return exact_sum(y), exact_sum(y * y), exact_sum(c * c)

    def to_csv(self) -> str:
        """Serialize with header ``w,delta``; ``repr`` keeps values round-tripping exactly."""
        lines = ["w,delta"] + [f"{float(v)!r},{int(d)}" for v, d in zip(self._w, self._delta)]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"CensoredSample(n={self.n}, m={self.m})"


def from_type2(values: Iterable[float], total_n: int) -> CensoredSample:
    """Build the (w, delta) sample for a Type-II censored experiment.

    ``values`` are the ``r`` smallest order statistics actually observed
    (ascending); the remaining ``total_n - r`` units are censored at the
    largest observed value.
    """
    vals = [float(v) for v in values]
    r = len(vals)
    if r == 0:
        raise DataError("need at least one observed order statistic")
    if not all(map(math.isfinite, vals)):
        raise DataError("observed order statistics must be finite")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise DataError("observed order statistics must be sorted ascending")
    try:
        total_n = operator.index(total_n)
    except TypeError:
        raise DataError(f"total_n must be an integer, got {total_n!r}") from None
    if total_n < r:
        raise DataError(f"total_n={total_n} is smaller than the {r} observed values")
    w = vals + [vals[-1]] * (total_n - r)
    delta = [1] * r + [0] * (total_n - r)
    return CensoredSample(w, delta)


def observed_loglik(sample: CensoredSample, params: ParamSet) -> float:
    """Log-likelihood of the censored sample: exact points contribute the log
    density, censored points the log survival at their bound.

    Returns ``-inf`` if any exact observation has zero density.  The terms are
    added by :func:`exact_sum`, which equals ``math.fsum`` of them: the result
    is the correctly rounded total and does not depend on the order of the
    units.
    """
    parts = []
    y = sample.uncensored
    if y.size:
        lp = params.logpdf(y)
        if np.any(np.isneginf(lp)):
            return -math.inf
        parts.append(lp)
    r = sample.censor_times
    if r.size:
        parts.append(params.log_survival(r))
    return exact_sum(np.concatenate(parts)) if parts else 0.0


def validate(sample: CensoredSample, family: Family | None = None) -> list[str]:
    """Return a list of human-readable invariant violations (empty if none).

    Checks: nonempty sample, finite values, indicators in {0, 1}, at least
    one exact observation (with none, the likelihood approaches its supremum
    as the location grows and no maximizer exists), positivity for the
    Rayleigh family, and for the normal and Laplace families two distinct
    exact values or a bound above the one value (else the likelihood at that
    value grows without bound as the scale goes to 0).
    """
    problems = []
    if sample.n == 0:
        problems.append("sample is empty")
        return problems
    bad_delta = (sample.delta != 0) & (sample.delta != 1)
    if np.any(bad_delta):
        rows = np.nonzero(bad_delta)[0]
        problems.append(
            f"delta must be 0 or 1; offending rows (0-based): {rows.tolist()[:10]}"
        )
    if not np.all(np.isfinite(sample.w)):
        rows = np.nonzero(~np.isfinite(sample.w))[0]
        problems.append(f"w must be finite; offending rows (0-based): {rows.tolist()[:10]}")
    elif sample.m == 0 and not np.any(bad_delta):
        problems.append(
            "all observations are censored: likelihood unbounded; estimation refused"
        )
    elif (family in (Family.NORMAL, Family.LAPLACE) and sample.m > 0
          and sample.uncensored.min() == sample.uncensored.max()
          and not np.any(sample.censor_times > sample.uncensored[0])):
        problems.append(
            "all exact observations are equal and no bound lies above them: "
            "likelihood unbounded; estimation refused"
        )
    if family is Family.RAYLEIGH and np.any(sample.w <= 0.0):
        rows = np.nonzero(sample.w <= 0.0)[0]
        problems.append(
            f"nonpositive observation for the Rayleigh family; "
            f"offending rows (0-based): {rows.tolist()[:10]}"
        )
    return problems


def ensure_fittable(sample: CensoredSample, family: Family | None = None) -> None:
    """Raise :class:`DataError` listing every violation found by ``validate``."""
    problems = validate(sample, family)
    if problems:
        raise DataError("; ".join(problems))


def _read_text(path) -> io.StringIO:
    """The file at ``path`` decoded as UTF-8, a leading byte order mark
    dropped, to be read line by line with line endings as written.  A byte
    that is not UTF-8 raises :class:`DataError` naming its line and offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # \r\n, \r and \n end lines, as in csv; "." stands in for the bad byte
        line = len((data[:err.start] + b".").splitlines())
        raise DataError(f"{path}, line {line}: byte {data[err.start]:#04x} at offset "
                        f"{err.start} is not UTF-8") from None
    return io.StringIO(text.removeprefix("\ufeff"), newline="")


def _blank(row: list[str]) -> bool:
    """Whether a CSV record holds nothing but whitespace: both CSV readers
    skip such lines, and count them in later lines' numbers."""
    return len(row) < 2 and not (row and row[0].strip())


def read_censored_csv(path) -> CensoredSample:
    """Read a sample from CSV with header ``w,delta``.

    A delta cell is any number equal to 0 or 1, such as ``1``, ``1.0`` or
    ``0e0``.  Malformed rows raise :class:`DataError` naming the
    offending line, and so does a byte that is not UTF-8.
    """
    reader = csv.reader(_read_text(path))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file (expected header 'w,delta')")
    if [h.strip().lower() for h in header[:2]] != ["w", "delta"]:
        raise DataError(f"{path}: expected header 'w,delta', got {','.join(header)!r}")
    w, delta = [], []
    for row in reader:
        # reader.line_num is the file line a record ends on: a quoted cell may
        # span lines
        if len(row) < 2:
            if _blank(row):
                continue
            raise DataError(f"{path}, line {reader.line_num}: expected two columns 'w,delta'")
        try:
            value = float(row[0])
        except ValueError:
            raise DataError(f"{path}, line {reader.line_num}: cannot parse w value "
                            f"{row[0]!r}") from None
        try:
            flag = float(row[1])
        except ValueError:
            raise DataError(f"{path}, line {reader.line_num}: cannot parse delta value "
                            f"{row[1]!r}") from None
        if flag not in (0, 1):
            raise DataError(f"{path}, line {reader.line_num}: delta must be 0 or 1, "
                            f"got {flag}")
        w.append(value)
        delta.append(flag)
    if not w:
        raise DataError(f"{path}: empty sample")
    return CensoredSample(w, delta)


def write_censored_csv(path, sample: CensoredSample) -> None:
    """Write the sample as CSV with header ``w,delta``; values round-trip exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(sample.to_csv())
