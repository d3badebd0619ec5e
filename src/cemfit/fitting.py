"""Shared fitting plumbing: configuration, iteration traces, default starts."""

from __future__ import annotations

import csv
import enum
import math
import operator
from dataclasses import dataclass, field

from .censoring import CensoredSample, _blank, _read_text
from .distributions import _CLASSES, Family, ParamSet
from .exceptions import DataError, ParameterError
from .streams import _root_seed

__all__ = [
    "Algorithm",
    "FitConfig",
    "TraceRow",
    "FitTrace",
    "default_start",
    "read_trace_csv",
    "DEFAULT_SEED",
]

# Fixed, documented default seed; runs are reproducible out of the box.
DEFAULT_SEED = 0


class Algorithm(enum.Enum):
    EM = "em"
    MCEM = "mcem"
    DIRECT = "direct"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _integer(name: str, value) -> int:
    """``value`` as a Python int if it is one (a NumPy integer too); a float,
    even an integral one, is refused rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class FitConfig:
    """Options shared by the fitting routines.

    ``max_iter=None`` resolves to the algorithm's own default: 500 for the
    closed-form EM iteration, 15 for Monte Carlo EM (whose default stopping
    rule is the iteration budget itself).  ``k``, the replicates per censored
    unit in every iteration, only applies to Monte Carlo EM; ``tol``, the
    parameter change in units of sigma that ends a run, only to the
    closed-form EM iteration.
    """

    family: Family
    algorithm: Algorithm
    start: ParamSet | None = None
    k: int = 50_000
    max_iter: int | None = None
    tol: float = 1e-8
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ParameterError(f"family must be a Family member, got {self.family!r}")
        if not isinstance(self.algorithm, Algorithm):
            raise ParameterError(f"algorithm must be an Algorithm member, got {self.algorithm!r}")
        if self.algorithm is Algorithm.EM and self.family is not Family.NORMAL:
            raise ParameterError(
                f"the exact EM step is only available for the normal family; "
                f"use mcem or direct for {self.family}"
            )
        if self.start is not None and not isinstance(self.start, ParamSet):
            raise ParameterError(f"start must be a parameter set such as Normal(0.0, 1.0), "
                                 f"got {self.start!r}")
        if self.start is not None and self.start.family is not self.family:
            raise ParameterError(
                f"start parameters are for {self.start.family}, config family is {self.family}"
            )
        self.k = _integer("k", self.k)
        if self.k < 1:
            raise ParameterError("k must be a positive integer")
        if self.max_iter is not None:
            self.max_iter = _integer("max_iter", self.max_iter)
            if self.max_iter < 1:
                raise ParameterError("max_iter must be a positive integer")
        if not 0.0 < self.tol < math.inf:
            raise ParameterError("tol must be positive and finite")
        self.seed = _root_seed(_integer("seed", self.seed))

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 15 if self.algorithm is Algorithm.MCEM else 500


@dataclass(frozen=True)
class TraceRow:
    """One iteration record: index s, parameters at s, observed log-likelihood."""

    s: int
    params: ParamSet
    loglik: float

    def reported(self) -> tuple[float, ...]:
        """Row as displayed: (s, reported parameters..., loglik)."""
        return (float(self.s), *self.params.reported(), self.loglik)


@dataclass
class FitTrace:
    """The result of a fit on every route: row s holds the parameters after
    s steps.  An EM or MCEM trace holds every step from the start (s = 0);
    a direct fit has one row, its maximum after ``s`` steps (Newton steps,
    Laplace profile evaluations, or 0 for the Rayleigh closed form), and
    sets ``gradient_norm``, the norm of the score there."""

    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    gradient_norm: float | None = None

    @property
    def final(self) -> ParamSet:
        return self.rows[-1].params

    @property
    def loglik(self) -> float:
        return self.rows[-1].loglik

    @property
    def iterations(self) -> int:
        """Number of steps actually taken."""
        return self.rows[-1].s if self.rows else 0

    def logliks(self) -> list[float]:
        return [row.loglik for row in self.rows]

    def header(self) -> list[str]:
        return ["s", *self.rows[0].params.param_names, "loglik"]

    def to_csv(self) -> str:
        """Serialize with 17 significant digits so values re-parse exactly."""
        lines = [",".join(self.header())]
        lines += [",".join(f"{v:.17g}" for v in row.reported()) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def read_trace_csv(path) -> list[tuple[float, ...]]:
    """Parse a trace CSV back into numeric rows (s, params..., loglik).

    A cell that is not a number raises :class:`DataError` naming its line,
    and so does a byte that is not UTF-8.
    """
    reader = csv.reader(_read_text(path))
    if next(reader, None) is None:
        raise DataError(f"{path}: empty file (expected a trace header)")
    out = []
    for row in reader:
        if _blank(row):
            continue
        values = []
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}, line {reader.line_num}: cannot parse trace value "
                                f"{cell!r}") from None
        out.append(tuple(values))
    return out


def default_start(sample: CensoredSample, family: Family) -> ParamSet:
    """Moment-style start from the exact observations: ``family``'s ``moment_start``.

    Each family falls back to a neutral unit-scale start when its moments
    are degenerate (too few exact observations, or all equal).
    """
    return _CLASSES[family].moment_start(sample.uncensored)
