"""Reference values computed apart from cemfit.

Everything here works from the raw arrays (w, delta) and SciPy special
functions or closed forms; nothing is imported from cemfit.  Parameters are
the reported coordinates cemfit prints: (mu, sigma) for the normal and
Laplace families, (beta,) for Rayleigh.

* ``mle``            censored-data MLE of a sample;
* ``loglik``         observed-data log-likelihood;
* ``em_map``         one exact (noise-free) EM update;
* ``mc_step_cov``    covariance of one Monte Carlo EM update around the exact
                     update, from truncated-distribution variances;
* ``mcem_band``      per-coordinate band an S-step MCEM run must land in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import root
from scipy.special import log_ndtr

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _split(w, delta):
    w = np.asarray(w, dtype=float)
    delta = np.asarray(delta)
    return w[delta == 1], w[delta == 0]


def _hazard(a):
    """Standard normal hazard phi(a) / Q(a), finite deep in both tails."""
    return np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_ndtr(-a))


def loglik(family, w, delta, theta) -> float:
    y, c = _split(w, delta)
    if family == "normal":
        mu, sigma = theta
        z = (y - mu) / sigma
        total = np.sum(-0.5 * z * z - math.log(sigma) - _LOG_SQRT_2PI)
        return float(total + np.sum(log_ndtr(-(c - mu) / sigma)))
    if family == "laplace":
        mu, sigma = theta
        zc = (c - mu) / sigma
        logsf = np.where(zc >= 0.0, -math.log(2.0) - np.maximum(zc, 0.0),
                         np.log1p(-0.5 * np.exp(np.minimum(zc, 0.0))))
        return float(np.sum(-np.abs(y - mu) / sigma - math.log(2.0 * sigma)) + np.sum(logsf))
    (beta,) = theta
    b2 = beta * beta
    return float(np.sum(np.log(y) - math.log(b2) - 0.5 * y * y / b2) - np.sum(0.5 * c * c / b2))


def laplace_segment(w, delta):
    """Flat segment [lo, hi] of the Laplace location likelihood.

    With every censoring bound at or above the segment, the location score
    is #(y > mu) + n_c - #(y < mu): the segment holds the middle order
    statistics of the sample with censored units placed at +infinity.
    """
    w = np.asarray(w, dtype=float)
    z = np.sort(np.where(np.asarray(delta) == 1, w, np.inf))
    n = z.size
    lo, hi = (z[n // 2], z[n // 2]) if n % 2 else (z[n // 2 - 1], z[n // 2])
    c = w[np.asarray(delta) == 0]
    if not np.isfinite(hi) or (c.size and c.min() < hi):
        raise ValueError("closed-form Laplace MLE needs every bound above the median")
    return float(lo), float(hi)


def em_map(family, w, delta, theta):
    """One exact EM update (conditional expectations in closed form)."""
    y, c = _split(w, delta)
    n = y.size + c.size
    if family == "normal":
        mu, sigma = theta
        h = _hazard((c - mu) / sigma)
        s1 = np.sum(y) + np.sum(mu + sigma * h)
        s2 = np.sum(y * y) + np.sum(mu * mu + sigma * sigma + sigma * (mu + c) * h)
        mean = s1 / n
        return (float(mean), float(math.sqrt(s2 / n - mean * mean)))
    if family == "laplace":
        mu, sigma = theta
        if c.size and c.min() < mu:
            raise ValueError("exact Laplace update implemented for bounds above the location")
        lo, hi = laplace_segment(w, delta)
        loc = 0.5 * (lo + hi)
        # X - c ~ Exp(sigma) above a bound at or over the location
        return (loc, float((np.sum(np.abs(y - loc)) + np.sum(c + sigma - loc)) / n))
    (beta,) = theta
    # X^2 - c^2 ~ Exp(mean 2 beta^2) above any bound
    b2 = (np.sum(y * y) + np.sum(c * c + 2.0 * beta * beta)) / (2.0 * n)
    return (float(math.sqrt(b2)),)


def mle(family, w, delta):
    """Censored-data MLE in reported coordinates (Laplace: segment midpoint)."""
    y, c = _split(w, delta)
    if family == "rayleigh":
        return (math.sqrt(float(np.sum(np.asarray(w, float) ** 2)) / (2.0 * y.size)),)
    if family == "laplace":
        lo, hi = laplace_segment(w, delta)
        mu = 0.5 * (lo + hi)
        return (mu, float((np.sum(np.abs(y - mu)) + np.sum(c - mu)) / y.size))
    theta = (float(np.mean(w)), float(np.std(w)) or 1.0)
    for _ in range(2000):
        new = em_map("normal", w, delta, theta)
        done = max(abs(a - b) for a, b in zip(new, theta)) < 1e-7 * new[1]
        theta = new
        if done:
            break

    def score(x):
        mu, sigma = x[0], math.exp(x[1])
        z = (y - mu) / sigma
        a = (c - mu) / sigma
        h = _hazard(a)
        return [(np.sum(z) + np.sum(h)) / sigma, np.sum(z * z - 1.0) + np.sum(a * h)]

    sol = root(score, [theta[0], math.log(theta[1])], method="hybr", options={"xtol": 1e-14})
    out = (float(sol.x[0]), float(math.exp(sol.x[1])))
    if max(abs(g) for g in score(sol.x)) > 1e-6 * math.sqrt(y.size + c.size):
        raise ArithmeticError(f"normal MLE score did not vanish: {score(sol.x)}")
    return out


def mc_step_cov(family, w, delta, theta, k):
    """Covariance of one MCEM update at ``theta`` with ``k`` draws per unit.

    Delta method on the M-step, with the per-unit variances of the
    truncated distributions the draws come from.
    """
    y, c = _split(w, delta)
    n = y.size + c.size
    if family == "normal":
        mu, sigma = theta
        a = (c - mu) / sigma
        h = _hazard(a)
        # E[Z^j | Z > a] by m_j = (j - 1) m_{j-2} + a^(j-1) h
        m1 = h
        m2 = 1.0 + a * h
        m3 = 2.0 * m1 + a * a * h
        m4 = 3.0 * m2 + a ** 3 * h
        scale = sigma * sigma / (k * n * n)
        v_mu = scale * np.sum(m2 - m1 * m1)
        v_sigma = scale * np.sum(m4 - m2 * m2) / 4.0
        cov = scale * np.sum(m3 - m1 * m2) / 2.0
        return np.array([[v_mu, cov], [cov, v_sigma]])
    if family == "laplace":
        # location: order statistics only (every draw lies above the bounds)
        return np.array([[0.0, 0.0], [0.0, c.size * theta[1] ** 2 / (k * n * n)]])
    (beta,) = theta
    return np.array([[c.size * beta * beta / (4.0 * k * n * n)]])


def _jacobian(family, w, delta, theta):
    theta = np.asarray(theta, dtype=float)
    jac = np.zeros((theta.size, theta.size))
    for j in range(theta.size):
        h = 1e-5 * theta[-1]
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (np.array(em_map(family, w, delta, up))
                     - np.array(em_map(family, w, delta, dn))) / (2.0 * h)
    return jac


def mcem_band(family, w, delta, start, k, steps, z=6.0):
    """Half-widths of the band around the MLE that an MCEM run must land in.

    The run's error after ``steps`` updates is the noise-free EM error
    (followed exactly with ``em_map``) plus the Monte Carlo noise of each
    update carried forward by the EM Jacobian J at the MLE:
    V = sum_{i<steps} J^i Sigma J^i', Sigma the one-step covariance.  The
    band is ``z`` standard deviations of that noise plus the noise-free
    error, plus 1e-12 of the scale for rounding.
    """
    theta_hat = np.array(mle(family, w, delta))
    det = np.array(start, dtype=float)
    for _ in range(steps):
        det = np.array(em_map(family, w, delta, det))
    jac = _jacobian(family, w, delta, theta_hat)
    sigma = mc_step_cov(family, w, delta, theta_hat, k)
    v = np.zeros_like(sigma)
    power = np.eye(theta_hat.size)
    for _ in range(steps):
        v += power @ sigma @ power.T
        power = jac @ power
    return z * np.sqrt(np.diag(v)) + np.abs(det - theta_hat) + 1e-12 * theta_hat[-1]
