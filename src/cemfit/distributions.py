"""Parametric families: normal, Laplace, and Rayleigh.

Each family is a frozen dataclass on the base ``ParamSet``, which checks
that its natural parameters are finite and the last, the scale, positive.
The families expose what the fits use: ``logpdf`` and ``log_survival`` for
the censored likelihood and ``quantile`` for simulation; ``from_reported``
inverts ``reported()`` (the natural parameters, with sigma for the normal
sigma2) and ``moment_start`` is the family's default start.  Each class
gives the score of the censored log-likelihood of a sample in its reported
coordinates (``reported_score``); the normal class also maps to
coordinates in which that log-likelihood is concave (``to_concave`` /
``from_concave``) and gives its score and Hessian there in closed form
(``concave_derivatives``), which the direct route's Newton search uses.
``exact_sum`` is the correctly rounded sum the likelihood and the scores
add their terms with.  Methods accept scalars or numpy arrays and stay
accurate far into the tails: the normal quantile and log-survival are
SciPy's ``ndtri`` and ``log_ndtr``, ``norm_sf`` (which the truncated
sampler uses, and as its cdf norm_sf(-z)) goes through the complementary
error function, and the Mills ratio uses the scaled complementary error
function so it never underflows.  Only the normal family needs
``scipy.special``, and each of its functions imports its ufunc in its own
body: loading SciPy is most of the package's import time, so it is paid on
a normal fit's first call, and a process that fits only Laplace or
Rayleigh samples never loads SciPy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "Family",
    "ParamSet",
    "Normal",
    "Laplace",
    "Rayleigh",
    "make_params",
    "norm_sf",
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


# exact_sum hands arrays shorter than this to math.fsum, which is then faster:
# on log-likelihood terms one certified extraction round took 12.4 us at 384
# terms against fsum's 12.3, and 12.7 against 14.0 at 448 (BENCH_sorted_mills.json).
_EXACT_MIN_TERMS = 448
# Exponent range of the extraction constant 2**e: 2**e stays finite, and
# 2**-53 * 2**e, the grid the extracted parts lie on, stays a normal number.
_SIGMA_EXP_MIN, _SIGMA_EXP_MAX = -969, 1023
_UNIT_ROUNDOFF = 2.0 ** -53
_MIN_NORMAL = 2.0 ** -1022


def exact_sum(a) -> float:
    """``math.fsum(a.tolist())`` of a float array, in a few NumPy passes.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31:189, 2008): with
    sigma = 2**e >= 2**M * max|p| and 2**M > n + 1, q = (sigma + p) - sigma
    lies on the grid 2**(e - 53) below sigma / 2**M in magnitude, so
    ``np.sum(q)`` is exact in any order and p - q is exact.  Each round takes
    53 - M bits off every term; zeros are dropped and the rounds repeat on
    what is left.  ``math.fsum`` of the round totals and of the few terms
    left is then the correctly rounded sum of ``a``.  Short arrays, any
    non-finite term and sigma outside the normal range go to ``math.fsum``
    directly, so every inf, nan, ``ValueError`` and ``OverflowError`` is
    the one ``math.fsum`` gives.

    Most sums end after the first round: :func:`_certified_total` adds the
    round's total to the float sum of its residuals and returns that when
    its rounding error plus a bound on the residual sum's error (Higham's
    gamma_{n-1} * n * 2**(e - 53), taken 4 times over) is below half the
    gap to the result's nearer neighbour.  The rounds go on only where it
    is not, as at a tie or a total that cancels to 0.
    """
    p = np.asarray(a, dtype=float).ravel()
    totals, work = [], np.empty(p.size)
    while p.size >= _EXACT_MIN_TERMS:
        # NumPy's max and min propagate nan, so a nan or an infinity fails the test
        top = max(float(p.max()), -float(p.min()))
        if not 0.0 < top < math.inf:
            break
        e = math.frexp(top)[1] + (p.size + 1).bit_length()
        if not _SIGMA_EXP_MIN <= e <= _SIGMA_EXP_MAX:
            break
        sigma = math.ldexp(1.0, e)
        q = work[:p.size]
        np.subtract(np.add(p, sigma, out=q), sigma, out=q)
        total = float(np.sum(q))
        np.subtract(p, q, out=q)
        if not totals and (certified := _certified_total(total, q, e)) is not None:
            return certified
        totals.append(total)
        p = q[q != 0.0]
    return math.fsum(totals + p.tolist())


def _certified_total(t: float, r: np.ndarray, e: int) -> float | None:
    """The correctly rounded value of t + sum(r) when a bound proves it, else None.

    The residuals of one extraction round at 2**e obey |r_i| <= 2**(e - 53), so
    the float sum tau = ``np.sum(r)``, in any order of its n - 1 additions, is
    within gamma_{n-1} * n * 2**(e - 53) of sum(r), gamma_k = k*u / (1 - k*u)
    with u = 2**-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, eq. 4.4); the bound is taken 4 times over.  res = t + tau
    rounded, and TwoSum (Knuth) gives its error err exactly, so the exact sum
    lies within |err| + bound of res.  Below half the smaller gap from res to
    its neighbours (the one toward 0), the exact sum rounds to res.  A tie, a
    total of 0 or near the subnormal range, and a bound that is not a normal
    number all fail the test.  No value overflows: |t| + |tau| < 2**e <= 2**1023.
    """
    n = r.size
    tau = float(np.sum(r))
    res = t + tau
    back = res - t
    err = (t - (res - back)) + (tau - back)
    nu = (n - 1) * _UNIT_ROUNDOFF
    bound = 4.0 * nu / (1.0 - nu) * n * math.ldexp(1.0, e - 53)
    gap = abs(res) - math.nextafter(abs(res), 0.0)
    return res if bound >= _MIN_NORMAL and abs(err) + bound < 0.5 * gap else None


def _open_unit(u) -> np.ndarray:
    """``u`` as a float array, rejected unless every value lies strictly inside (0, 1).

    NaN is rejected too: it makes ``min`` / ``max`` NaN, which fails both tests.
    """
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() > 0.0 and u.max() < 1.0):
        raise ParameterError("u must lie strictly inside (0, 1)")
    return u


# ---------------------------------------------------------------------------
# standard normal helpers
# ---------------------------------------------------------------------------

def norm_sf(z):
    """Standard normal survival function, accurate in the upper tail."""
    from scipy.special import erfc
    z = np.asarray(z, dtype=float)
    return _maybe_float(0.5 * erfc(z / _SQRT2))


def mills_ratio(a):
    """Hazard of the standard normal: pdf(a) / survival(a).

    The nonnegative branch uses the scaled complementary error function, so
    the ratio is accurate to machine precision for any ``a`` without the
    intermediate underflow of pdf and survival separately.  The negative
    branch divides pdf by survival: erfcx overflows there, so the scaled
    form alone would return 0 instead of ~1e-314 at a = -38.  The values are
    sorted, run through :func:`_mills_ratio_ascending` and put back in place;
    each one is the same bits wherever it stands.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = _mills_ratio_ascending(flat[order])
    return _maybe_float(out.reshape(a.shape))


def _mills_ratio_ascending(a: np.ndarray) -> np.ndarray:
    """:func:`mills_ratio` of a 1-D float array sorted ascending.

    One ``searchsorted`` splits the branches, so each runs on a plain slice
    with no mask to gather or scatter (SciPy 1.17.1's erfc and erfcx with
    ``where=`` corrupt the heap): -0.0 compares equal to 0.0 and takes the
    a >= 0 branch, as nan, which sorts last, does.  The normal family's E-step
    and Newton derivatives call it on a sample's cached ascending bounds.
    """
    from scipy.special import erfcx
    out = np.empty_like(a)
    split = int(np.searchsorted(a, 0.0))
    if split < a.size:
        np.divide(math.sqrt(2.0 / math.pi), erfcx(a[split:] / _SQRT2), out=out[split:])
    if split:
        neg = a[:split]
        np.divide(np.exp(-0.5 * neg * neg) / _SQRT_2PI, norm_sf(neg), out=out[:split])
    return out


def norm_ppf(u, out=None):
    """Inverse standard normal cdf for u in the open interval (0, 1).

    ``out``, a float array of ``u``'s shape, receives the result; it may be
    ``u`` itself, which then holds the inverse in place of the probabilities.
    By default the result goes to a fresh copy of ``u``.
    """
    from scipy.special import ndtri
    u = _open_unit(u)
    upper = u > 0.5
    # 1 - u is exact for u >= 0.5, so the two halves are symmetric bitwise;
    # out, holding u, is reflected, inverted and negated in place
    if out is None:
        out = u.copy()
    elif out is not u:
        np.copyto(out, u)
    np.subtract(1.0, u, out=out, where=upper)
    ndtri(out, out=out)
    return _maybe_float(np.negative(out, out=out, where=upper))


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------


class ParamSet:
    """Base of the families' frozen dataclasses, whose fields are the natural
    parameters, each finite, with the scale last and positive."""

    def __post_init__(self):
        # __dict__ holds the fields in order; a fit builds many parameter
        # sets, and walking it is the cheapest check
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not value > 0.0:
            raise ParameterError(f"{name} must be positive, got {value}")

    def reported(self) -> tuple[float, ...]:
        """Parameters as shown in traces and summaries, the scale last and
        positive: the natural ones here; ``from_reported`` inverts this map."""
        return tuple(self.__dict__.values())

    @classmethod
    def from_reported(cls, *values: float):
        return cls(*values)


@dataclass(frozen=True)
class Normal(ParamSet):
    """Normal distribution parameterized by mean and variance."""

    mu: float
    sigma2: float

    family = Family.NORMAL
    param_names = ("mu", "sigma")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def reported(self) -> tuple[float, ...]:
        """(mu, sigma): the normal family reports sigma where it stores sigma2."""
        return (self.mu, self.sigma)

    @classmethod
    def from_reported(cls, mu: float, sigma: float) -> "Normal":
        return cls(mu, sigma * sigma)

    def to_concave(self) -> tuple[float, float]:
        """(eta, tau) = (mu / sigma, 1 / sigma): the censored log-likelihood is
        jointly concave in these (Pratt, JASA 76:103, 1981)."""
        tau = 1.0 / self.sigma
        return (self.mu * tau, tau)

    @classmethod
    def from_concave(cls, eta: float, tau: float) -> "Normal":
        if not tau > 0.0:
            raise ParameterError(f"tau = 1/sigma must be positive, got {tau}")
        return cls.from_reported(eta / tau, 1.0 / tau)

    def concave_derivatives(self, sample):
        """Score and Hessian of the censored log-likelihood of ``sample`` in
        (eta, tau).

        With y the exact values, c the bounds, m = y.size, a = tau*c - eta,
        lam the Mills ratio at a and k = lam*(lam - a) (minus the second
        derivative of the log survival in a):

            g_eta = tau*sum(y) - m*eta + sum(lam)
            g_tau = m/tau - (tau*sum(y**2) - eta*sum(y)) - sum(c*lam)
            H = [[-m - sum(k),      sum(y) + sum(k*c)],
                 [sum(y) + sum(k*c), -m/tau**2 - sum(y**2) - sum(k*c**2)]]

        Returns Python floats, ``((g_eta, g_tau), H)``.
        """
        sy, syy, _ = sample.sums
        c = sample.censor_times
        order, ascending = sample._ascending_bounds
        eta, tau = self.to_concave()
        m = sample.m
        a = tau * c - eta
        # lam on the ascending bounds, put back in sample order: np.sum adds
        # pairwise, so its bits depend on the order of the terms
        lam = np.empty_like(a)
        lam[order] = _mills_ratio_ascending(tau * ascending - eta)
        # k = 1 - Var(Z | Z > a) lies in (0, 1); lam - a loses its digits for
        # large a, so clip: with k >= 0 the Hessian stays negative definite
        k = np.clip(lam * (lam - a), 0.0, 1.0)
        kc = k * c
        # m/tau and m/tau**2 as m*sigma and m*sigma2: no division to overflow
        g = (tau * sy - m * eta + float(np.sum(lam)),
             m * self.sigma - (tau * syy - eta * sy) - float(np.sum(c * lam)))
        cross = sy + float(np.sum(kc))
        h = ((-m - float(np.sum(k)), cross),
             (cross, -m * self.sigma2 - syy - float(np.sum(kc * c))))
        return g, h

    def reported_score(self, sample) -> tuple[float, float]:
        """Score in (mu, sigma), from the one in (eta, tau)."""
        (g_eta, g_tau), _ = self.concave_derivatives(sample)
        eta, tau = self.to_concave()
        return (g_eta / self.sigma, -(eta * g_eta + tau * g_tau) / self.sigma)

    @classmethod
    def moment_start(cls, y: np.ndarray) -> "Normal":
        """Mean and variance of the exact observations; N(0, 1) if degenerate."""
        if y.size >= 2:
            v = float(np.var(y))
            if v > 0.0:
                return cls(float(np.mean(y)), v)
        return cls(0.0, 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return _maybe_float(-0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI)

    def log_survival(self, x):
        """SciPy's ``log_ndtr`` of minus the standardized ``x``: finite far into
        the upper tail, and accurate below the mean as well, where the log of
        a survival near 1 would lose digits."""
        from scipy.special import log_ndtr
        x = np.asarray(x, dtype=float)
        return _maybe_float(log_ndtr(-((x - self.mu) / self.sigma)))

    def quantile(self, u):
        return _maybe_float(self.mu + self.sigma * np.asarray(norm_ppf(u)))


@dataclass(frozen=True)
class Laplace(ParamSet):
    """Laplace (double exponential) distribution with location and scale."""

    mu: float
    sigma: float

    family = Family.LAPLACE
    param_names = ("mu", "sigma")

    def location_slopes(self, x: np.ndarray, c: np.ndarray) -> tuple[float, float]:
        """Sigma times the left and right slopes of the censored log-likelihood
        in the location at ``mu``, with exact values ``x`` and bounds ``c``
        sorted.

        An exact value counts +1 above ``mu``, -1 below it and +-1 at it (the
        kink); a bound counts +1 at or above ``mu`` and e**z / (2 - e**z) below
        it, z = (bound - mu) / sigma.  Each slope adds one integer to one
        correctly rounded sum, so its sign is exact when no bound lies below.
        """
        mu = self.mu
        lo, hi = np.searchsorted(x, mu, "left"), np.searchsorted(x, mu, "right")
        below = int(np.searchsorted(c, mu, "left"))
        e = np.exp((c[:below] - mu) / self.sigma)
        smooth = exact_sum(e / (2.0 - e))
        counts = int(x.size - hi - lo + c.size - below)
        tied = int(hi - lo)
        return (counts + tied) + smooth, (counts - tied) + smooth

    @staticmethod
    def profile_scale(mu: float, x: np.ndarray, c: np.ndarray) -> float:
        """Maximizer in sigma of the log-likelihood at location ``mu`` (``x``, ``c``
        sorted).  In tau = 1/sigma the score m/tau - s + sum of a/(2e**(a tau) - 1)
        over a = mu - c > 0 (s sums |x - mu| and the other c - mu) is convex and
        decreasing: s/m if no a, else Newton from m/s (score >= 0) rises to the root,
        on a and s over 2**p (p the exponent of s/m): tau**2 then stays finite and
        nonzero in any units, and the power of two changes no bit where it already did."""
        below = int(np.searchsorted(c, mu, "left"))
        m, a = x.size, mu - c[:below]
        s = exact_sum(np.concatenate([np.abs(x - mu), c[below:] - mu]))
        if not below:
            return s / m
        p = math.frexp(s / m)[1]
        a, s = np.ldexp(a, -p), math.ldexp(s, -p)
        tau = m / s
        while True:
            e = np.exp(-a * tau)
            ar = a * e / (2.0 - e)
            step = (math.fsum((m / tau, -s, exact_sum(ar)))
                    / (m / (tau * tau) + 2.0 * float(np.sum(a * ar / (2.0 - e)))))
            if not tau + step > tau:
                return math.ldexp(1.0 / tau, p)
            tau += step

    def reported_score(self, sample) -> tuple[float, float]:
        """Score of the censored log-likelihood of ``sample`` in (mu, sigma).

        The location component is the minimum-norm element of the exact
        subgradient, since the likelihood has kinks at the exact values: 0
        where the one-sided slopes bracket 0, else the slope nearer 0.  The
        scale component is smooth:

            sum over y of (|y - mu| / sigma**2 - 1 / sigma)
            + sum over c >= mu of (c - mu) / sigma**2
            + sum over c < mu of z e**z / (sigma (2 - e**z)),  z = (c - mu) / sigma,

        added as ((sum(|y - mu|) + sum(t)) / sigma - m) / sigma with t the
        bound terms times sigma**2, so that no sigma**2 underflows to 0.
        """
        mu, sigma = self.mu, self.sigma
        x, (_, c) = sample._ascending_exact, sample._ascending_bounds
        left, right = self.location_slopes(x, c)
        e = np.exp(np.minimum(c - mu, 0.0) / sigma)
        t = np.where(c >= mu, c - mu, (c - mu) * e / (2.0 - e))
        spread = exact_sum(np.concatenate([np.abs(x - mu), t]))
        return ((max(right, 0.0) + min(left, 0.0)) / sigma,
                (spread / sigma - x.size) / sigma)

    @classmethod
    def moment_start(cls, y: np.ndarray) -> "Laplace":
        """Median and mean absolute deviation about it; Laplace(0, 1) if degenerate."""
        if y.size >= 2:
            med = float(np.median(y))
            scale = float(np.mean(np.abs(y - med)))
            if scale > 0.0:
                return cls(med, scale)
        return cls(0.0, 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_float(-np.abs(x - self.mu) / self.sigma - math.log(2.0 * self.sigma))

    def log_survival(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        upper = -math.log(2.0) - np.maximum(z, 0.0)
        lower = np.log1p(-0.5 * np.exp(np.minimum(z, 0.0)))
        return _maybe_float(np.where(z >= 0.0, upper, lower))

    def quantile(self, u):
        u = _open_unit(u)
        lower = np.log(2.0 * np.minimum(u, 0.5))
        upper = -np.log(2.0 * np.minimum(1.0 - u, 0.5))
        return _maybe_float(self.mu + self.sigma * np.where(u < 0.5, lower, upper))


@dataclass(frozen=True)
class Rayleigh(ParamSet):
    """Rayleigh distribution with scale beta; support is x > 0."""

    beta: float

    family = Family.RAYLEIGH
    param_names = ("beta",)

    def reported_score(self, sample) -> tuple[float]:
        """Score of the censored log-likelihood of ``sample`` in beta:
        -2m/beta + S/beta**3, with S the sum of squares of every unit."""
        b = self.beta
        _, syy, scc = sample.sums
        return (-2.0 * sample.m / b + (syy + scc) / b / b / b,)

    @classmethod
    def moment_start(cls, y: np.ndarray) -> "Rayleigh":
        """beta^2 = mean(y^2) / 2 over the exact observations; Rayleigh(1) if degenerate."""
        if y.size >= 1:
            b2 = float(np.sum(y * y)) / (2.0 * y.size)
            if b2 > 0.0:
                return cls(math.sqrt(b2))
        return cls(1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        pos = x > 0.0
        xp = np.where(pos, x, 1.0)
        good = np.log(xp) - math.log(b2) - 0.5 * xp * xp / b2
        return _maybe_float(np.where(pos, good, -np.inf))

    def log_survival(self, x):
        x = np.asarray(x, dtype=float)
        b2 = self.beta * self.beta
        return _maybe_float(np.where(x > 0.0, -0.5 * x * x / b2, 0.0))

    def quantile(self, u):
        u = _open_unit(u)
        return _maybe_float(self.beta * np.sqrt(-2.0 * np.log1p(-u)))


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
