"""Exact inverse-transform samplers for left-truncated distributions.

Each sampler maps a uniform ``u`` in (0, 1) to a draw from the parent
distribution conditioned on exceeding the truncation point ``lower``.  The
functions are pure: the caller supplies the uniforms (see
:class:`~cemfit.streams.RandomStream`), so every draw is reproducible and
the samplers vectorize over ``u``.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import _maybe_float, _open_unit, norm_cdf, norm_ppf, norm_sf
from .exceptions import ParameterError, TailUnderflowError

__all__ = [
    "sample_truncated_normal",
    "sample_truncated_laplace",
    "sample_truncated_rayleigh",
]


def _strictly_above(x, lower: float):
    """Guard against a rounded-down draw landing exactly on the bound."""
    return np.maximum(x, math.nextafter(lower, math.inf))


def sample_truncated_normal(mu: float, sigma: float, lower: float, u):
    """Draw from a normal(mu, sigma^2) conditioned on exceeding ``lower``.

    Uses the inverse conditional cdf.  When the truncation point sits in the
    upper half of the parent distribution the inversion runs through the
    survival function, which keeps full precision where the cdf would round
    to 1.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    u = _open_unit(u)
    r = (lower - mu) / sigma
    tail = norm_sf(r)
    if tail <= 1e-15:
        raise TailUnderflowError(
            f"truncation point leaves tail mass {tail:.3e} (standardized bound {r:.3g}); "
            "too deep for stable inversion"
        )
    if r >= 0.0:
        x = mu - sigma * np.asarray(norm_ppf(tail * (1.0 - u)))
    else:
        x = mu + sigma * np.asarray(norm_ppf(norm_cdf(r) + u * tail))
    return _maybe_float(_strictly_above(x, lower))


def sample_truncated_laplace(mu: float, sigma: float, lower: float, u):
    """Draw from a Laplace(mu, sigma) conditioned on exceeding ``lower``.

    The truncation point falls either in the exponential upper half (a single
    log inversion) or below the location, where the conditional cdf changes
    form at the location itself; the interior split point is
    H = (1 - e^r) / (2 - e^r) with r the standardized bound, and the two
    branches meet continuously at u = H.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    u = _open_unit(u)
    if lower >= mu:
        x = lower - sigma * np.log(u)
    else:
        r = (lower - mu) / sigma
        er = math.exp(r)
        split = (1.0 - er) / (2.0 - er)
        below = mu + sigma * np.log(2.0 * u + (1.0 - u) * er)
        above = mu - sigma * np.log(2.0 * (1.0 - u) - (1.0 - u) * er)
        x = np.where(u <= split, below, above)
    return _maybe_float(_strictly_above(x, lower))


def sample_truncated_rayleigh(beta: float, lower: float, u):
    """Draw from a Rayleigh(beta) conditioned on exceeding ``lower`` >= 0.

    The conditional survival ratio inverts in closed form:
    x = sqrt(lower^2 - 2 beta^2 log u).
    """
    if beta <= 0.0 or not math.isfinite(beta):
        raise ParameterError(f"beta must be positive, got {beta}")
    if lower < 0.0 or not math.isfinite(lower):
        raise ParameterError(f"truncation point must be finite and nonnegative, got {lower}")
    u = _open_unit(u)
    x = np.sqrt(lower * lower - 2.0 * beta * beta * np.log(u))
    return _maybe_float(_strictly_above(x, lower))
