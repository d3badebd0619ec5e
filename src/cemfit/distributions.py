"""Parametric families: normal, Laplace, and Rayleigh.

Each family is a frozen dataclass that carries its natural parameters and
exposes ``pdf``, ``cdf``, ``survival``, ``quantile`` plus the log-space
variants the censored likelihood needs; ``from_reported`` inverts
``reported()``.  Methods accept scalars or numpy arrays and stay accurate far
into the tails: the normal cdf/survival go through the complementary error
function, the quantile and log-survival are SciPy's ``ndtri`` and
``log_ndtr``, and the Mills ratio uses the scaled complementary error
function so it never underflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erfc, erfcx, log_ndtr, ndtri

from .exceptions import ParameterError

__all__ = [
    "Family",
    "Normal",
    "Laplace",
    "Rayleigh",
    "make_params",
    "norm_pdf",
    "norm_cdf",
    "norm_sf",
    "norm_logsf",
    "norm_ppf",
    "mills_ratio",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Family(enum.Enum):
    """Distribution families supported by the fitting routines."""

    NORMAL = "normal"
    LAPLACE = "laplace"
    RAYLEIGH = "rayleigh"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _maybe_float(x):
    """Return a python float for 0-d results, the array otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# standard normal helpers
# ---------------------------------------------------------------------------

def norm_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    return _maybe_float(np.exp(-0.5 * z * z) / _SQRT_2PI)


def norm_cdf(z):
    """Standard normal cdf via the complementary error function."""
    z = np.asarray(z, dtype=float)
    return _maybe_float(0.5 * erfc(-z / _SQRT2))


def norm_sf(z):
    """Standard normal survival function, accurate in the upper tail."""
    z = np.asarray(z, dtype=float)
    return _maybe_float(0.5 * erfc(z / _SQRT2))


def norm_logsf(z):
    """log of the standard normal survival function, as SciPy's ``log_ndtr(-z)``.

    Finite for arbitrarily large ``z``, and accurate for negative ``z`` as
    well, where log(0.5 * erfc(z / sqrt 2)) of a value near 1 loses digits.
    """
    z = np.asarray(z, dtype=float)
    return _maybe_float(log_ndtr(-z))


def mills_ratio(a):
    """Hazard of the standard normal: pdf(a) / survival(a).

    The nonnegative branch uses the scaled complementary error function, so
    the ratio is accurate to machine precision for any ``a`` without the
    intermediate underflow of pdf and survival separately.  The negative
    branch divides pdf by survival: erfcx overflows there, so the scaled
    form alone would return 0 instead of ~1e-314 at a = -38.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    pos = a >= 0.0
    if np.any(pos):
        out[pos] = math.sqrt(2.0 / math.pi) / erfcx(a[pos] / _SQRT2)
    if np.any(~pos):
        neg = a[~pos]
        out[~pos] = np.exp(-0.5 * neg * neg) / _SQRT_2PI / (0.5 * erfc(neg / _SQRT2))
    return _maybe_float(out)


def norm_ppf(u):
    """Inverse standard normal cdf for u in the open interval (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ParameterError("quantile argument must lie strictly inside (0, 1)")
    upper = u > 0.5
    # 1 - u is exact for u >= 0.5, so the two halves are symmetric bitwise.
    p = np.where(upper, 1.0 - u, u)
    x = ndtri(p)
    return _maybe_float(np.where(upper, -x, x))


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal:
    """Normal distribution parameterized by mean and variance."""

    mu: float
    sigma2: float

    family = Family.NORMAL
    param_names = ("mu", "sigma")

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise ParameterError("normal parameters must be finite")
        if self.sigma2 <= 0.0:
            raise ParameterError(f"variance must be positive, got {self.sigma2}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def reported(self) -> tuple[float, ...]:
        """Parameters as displayed in traces and summaries: (mu, sigma).

        In every family the scale is the last reported coordinate and is
        positive; ``from_reported`` inverts this map.
        """
        return (self.mu, self.sigma)

    @classmethod
    def from_reported(cls, mu: float, sigma: float) -> "Normal":
        return cls(mu, sigma * sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return _maybe_float(np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return _maybe_float(-0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return norm_cdf((x - self.mu) / self.sigma)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return norm_sf((x - self.mu) / self.sigma)

    def log_survival(self, x):
        x = np.asarray(x, dtype=float)
        return norm_logsf((x - self.mu) / self.sigma)

    def quantile(self, u):
        return _maybe_float(self.mu + self.sigma * np.asarray(norm_ppf(u)))


@dataclass(frozen=True)
class Laplace:
    """Laplace (double exponential) distribution with location and scale."""

    mu: float
    sigma: float

    family = Family.LAPLACE
    param_names = ("mu", "sigma")

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ParameterError("Laplace parameters must be finite")
        if self.sigma <= 0.0:
            raise ParameterError(f"scale must be positive, got {self.sigma}")

    def reported(self) -> tuple[float, ...]:
        return (self.mu, self.sigma)

    @classmethod
    def from_reported(cls, mu: float, sigma: float) -> "Laplace":
        return cls(mu, sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_float(np.exp(-np.abs(x - self.mu) / self.sigma) / (2.0 * self.sigma))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_float(-np.abs(x - self.mu) / self.sigma - math.log(2.0 * self.sigma))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        lower = 0.5 * np.exp(np.minimum(z, 0.0))
        upper = 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0))
        return _maybe_float(np.where(z < 0.0, lower, upper))

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        upper = 0.5 * np.exp(-np.maximum(z, 0.0))
        lower = 1.0 - 0.5 * np.exp(np.minimum(z, 0.0))
        return _maybe_float(np.where(z >= 0.0, upper, lower))

    def log_survival(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        upper = -math.log(2.0) - np.maximum(z, 0.0)
        lower = np.log1p(-0.5 * np.exp(np.minimum(z, 0.0)))
        return _maybe_float(np.where(z >= 0.0, upper, lower))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ParameterError("quantile argument must lie strictly inside (0, 1)")
        lower = np.log(2.0 * np.minimum(u, 0.5))
        upper = -np.log(2.0 * np.minimum(1.0 - u, 0.5))
        return _maybe_float(self.mu + self.sigma * np.where(u < 0.5, lower, upper))


@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh distribution with scale beta; support is x > 0."""

    beta: float

    family = Family.RAYLEIGH
    param_names = ("beta",)

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ParameterError("Rayleigh scale must be finite")
        if self.beta <= 0.0:
            raise ParameterError(f"scale must be positive, got {self.beta}")

    def reported(self) -> tuple[float, ...]:
        return (self.beta,)

    @classmethod
    def from_reported(cls, beta: float) -> "Rayleigh":
        return cls(beta)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        pos = x > 0.0
        xp = np.where(pos, x, 0.0)
        return _maybe_float(np.where(pos, xp / b2 * np.exp(-0.5 * xp * xp / b2), 0.0))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        pos = x > 0.0
        xp = np.where(pos, x, 1.0)
        good = np.log(xp) - math.log(b2) - 0.5 * xp * xp / b2
        return _maybe_float(np.where(pos, good, -np.inf))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        return _maybe_float(np.where(x > 0.0, -np.expm1(-0.5 * x * x / b2), 0.0))

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        return _maybe_float(np.where(x > 0.0, np.exp(-0.5 * x * x / b2), 1.0))

    def log_survival(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        return _maybe_float(np.where(x > 0.0, -0.5 * x * x / b2, 0.0))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ParameterError("quantile argument must lie strictly inside (0, 1)")
        return _maybe_float(self.beta * np.sqrt(-2.0 * np.log1p(-u)))


ParamSet = Normal | Laplace | Rayleigh


_CLASSES = {Family.NORMAL: Normal, Family.LAPLACE: Laplace, Family.RAYLEIGH: Rayleigh}


def make_params(family: Family, values) -> ParamSet:
    """Build a parameter set from its natural parameter vector.

    Natural parameters are (mu, sigma2) for the normal family, (mu, sigma)
    for Laplace, and (beta,) for Rayleigh.
    """
    cls = _CLASSES.get(family)
    if cls is None:
        raise ParameterError(f"unknown family: {family!r}")
    values = tuple(float(v) for v in values)
    names = [f.name for f in fields(cls)]
    if len(values) != len(names):
        raise ParameterError(f"{family.value} family takes {len(names)} "
                             f"parameter(s): {', '.join(names)}")
    return cls(*values)
