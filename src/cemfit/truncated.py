"""Exact inverse-transform samplers for left-truncated distributions.

Each sampler is called as ``sampler(params, lower, u)``: it maps a uniform
``u`` in (0, 1) to a draw from the family's parameter set ``params`` (a
``Normal``, ``Laplace`` or ``Rayleigh``) conditioned on exceeding the
truncation point ``lower``.  A parameter set is checked when it is built, so
the samplers check only the bounds and the uniforms.  The functions are
pure: the caller supplies the uniforms (see
:class:`~cemfit.streams.RandomStream`), so every draw is reproducible and
the samplers vectorize over ``u``.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Laplace, Normal, Rayleigh, _maybe_float, _open_unit, norm_ppf, norm_sf
from .exceptions import ParameterError

__all__ = [
    "sample_truncated_normal",
    "sample_truncated_laplace",
    "sample_truncated_rayleigh",
]


def _as_rows(lower, u):
    """``lower`` as a (rows, 1) column of bounds and ``u`` as the (rows, K) block
    of uniforms for them, plus the shape to give the draws back in.

    A scalar bound is one row holding every uniform, whatever ``u``'s shape;
    a column of bounds takes one row of ``u`` each.  Every bound must be
    finite.
    """
    u = _open_unit(u)
    lower = np.asarray(lower, dtype=float)
    shape = u.shape
    if lower.ndim == 0:
        lower, u = lower.reshape(1, 1), u.reshape(1, -1)
    elif lower.ndim != 2 or lower.shape[1] != 1 or u.ndim != 2 or u.shape[0] != lower.shape[0]:
        raise ParameterError(f"lower must be a scalar, or a (rows, 1) column for (rows, K) "
                             f"uniforms; got {lower.shape} and {u.shape}")
    bad = lower[~np.isfinite(lower)]
    if bad.size:
        raise ParameterError(f"truncation point must be finite, got {bad[0]}")
    return lower, u, shape


def _by_rows(take, first, second):
    """Rows where the (rows, 1) mask ``take`` holds come from ``first(rows)``,
    the others from ``second(rows)``.

    Each branch runs on its own rows only, and on the whole block, without a
    copy, when every row takes it.
    """
    take = take[:, 0]
    if take.all():
        return first(slice(None))
    if not take.any():
        return second(slice(None))
    head = first(take)
    x = np.empty((take.size, head.shape[1]))
    x[take] = head
    x[~take] = second(~take)
    return x


def _strictly_above(x, lower, shape):
    """Guard against a rounded-down draw landing exactly on its row's bound,
    and give the draws back in ``shape`` (a float for a scalar call).

    ``x`` is the sampler's own fresh array of draws and is raised in place.
    """
    np.maximum(x, np.nextafter(lower, np.inf), out=x)
    return _maybe_float(x.reshape(shape))


def sample_truncated_normal(params: Normal, lower, u):
    """Draw from ``params``, a normal(mu, sigma^2), conditioned on exceeding ``lower``.

    Uses the inverse conditional cdf.  When the truncation point sits in the
    upper half of the parent distribution the inversion runs through the
    survival function, which keeps full precision where the cdf would round
    to 1.  ``lower`` is a scalar or a (rows, 1) column of bounds for the rows
    of ``u``.
    """
    mu, sigma = params.mu, params.sigma
    lower, u, shape = _as_rows(lower, u)
    r = (lower - mu) / sigma
    tail = norm_sf(r)
    # below 2**-969, tail * (1 - u) with 1 - u >= 2**-53 would leave the normal doubles
    if np.any(tail < 2.0**-969):
        deep = int(np.argmax(r))
        raise ParameterError(f"truncation point leaves tail mass {tail[deep, 0]:.3e} "
                             f"(standardized bound {r[deep, 0]:.3g}); too deep for "
                             "stable inversion")

    # each branch holds one array of its rows' size, p, inverted in place
    # into the draws x
    def upper(rows):
        # x = mu - sigma * norm_ppf(tail * (1 - u))
        p = np.subtract(1.0, u[rows])
        p *= tail[rows]
        x = norm_ppf(p, out=p)
        x *= sigma
        return np.subtract(mu, x, out=x)

    def interior(rows):
        # x = mu + sigma * norm_ppf(norm_sf(-r) + u * tail)
        p = u[rows] * tail[rows]
        p += norm_sf(-r[rows])
        # at u = 1 - 2**-53 the sum can round to 1, outside norm_ppf's domain
        np.minimum(p, 1.0 - 2.0**-53, out=p)
        x = norm_ppf(p, out=p)
        x *= sigma
        x += mu
        return x

    return _strictly_above(_by_rows(r >= 0.0, upper, interior), lower, shape)


def sample_truncated_laplace(params: Laplace, lower, u):
    """Draw from ``params``, a Laplace(mu, sigma), conditioned on exceeding ``lower``.

    The truncation point falls either in the exponential upper half (a single
    log inversion) or below the location, where the conditional cdf changes
    form at the location itself; the interior split point is
    H = (1 - e^r) / (2 - e^r) with r the standardized bound, and the two
    branches meet continuously at u = H.  ``lower`` is a scalar or a
    (rows, 1) column of bounds for the rows of ``u``.
    """
    mu, sigma = params.mu, params.sigma
    lower, u, shape = _as_rows(lower, u)

    def upper(rows):
        x = np.log(u[rows])
        x *= sigma
        return np.subtract(lower[rows], x, out=x)

    def interior(rows):
        uu = u[rows]
        r = (lower[rows] - mu) / sigma
        # math.exp, not np.exp: NumPy's vector exp differs from libm in the last bit
        er = np.array([math.exp(v) for v in r[:, 0].tolist()]).reshape(r.shape)
        split = (1.0 - er) / (2.0 - er)
        below = mu + sigma * np.log(2.0 * uu + (1.0 - uu) * er)
        above = mu - sigma * np.log(2.0 * (1.0 - uu) - (1.0 - uu) * er)
        return np.where(uu <= split, below, above)

    return _strictly_above(_by_rows(lower >= mu, upper, interior), lower, shape)


def sample_truncated_rayleigh(params: Rayleigh, lower, u):
    """Draw from ``params``, a Rayleigh(beta), conditioned on exceeding ``lower`` >= 0.

    The conditional survival ratio inverts in closed form:
    x = sqrt(lower^2 - 2 beta^2 log u).  ``lower`` is a scalar or a (rows, 1)
    column of bounds for the rows of ``u``.
    """
    lower, u, shape = _as_rows(lower, u)
    bad = lower[lower < 0.0]
    if bad.size:
        raise ParameterError(f"truncation point must be nonnegative, got {bad[0]}")
    x = np.log(u)
    x *= 2.0 * params.beta * params.beta
    np.subtract(lower * lower, x, out=x)
    return _strictly_above(np.sqrt(x, out=x), lower, shape)
