"""The normal family's hot path on sorted bounds gives the bits of the plain one.

The E-step and the Newton derivatives evaluate the Mills ratio on a sample's
cached ascending bounds, and ``exact_sum`` may stop after one extraction round.
Each is checked here against a reference written out in sample order: the
boolean-mask Mills ratio, ``math.fsum`` and ``np.sum``.  The reference runs
at the same NumPy dispatch as the code, so the checks hold at any dispatch.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erfc, erfcx

from cemfit.censoring import CensoredSample, observed_loglik
from cemfit.distributions import Normal, mills_ratio
from cemfit.em import e_step


def mills_reference(a):
    """The Mills ratio with its branches split by boolean masks, in input order."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    pos = a >= 0.0
    if np.any(pos):
        out[pos] = math.sqrt(2.0 / math.pi) / erfcx(a[pos] / math.sqrt(2.0))
    if np.any(~pos):
        neg = a[~pos]
        sf = 0.5 * erfc(neg / math.sqrt(2.0))
        out[~pos] = np.exp(-0.5 * neg * neg) / math.sqrt(2.0 * math.pi) / sf
    return float(out) if out.ndim == 0 else out


def e_step_reference(sample, params):
    c, mu, sigma = sample.censor_times, params.mu, params.sigma
    h = mills_reference((c - mu) / sigma)
    return (math.fsum((mu + sigma * h).tolist()),
            math.fsum((mu * mu + params.sigma2 + (mu + c) * sigma * h).tolist()))


def concave_derivatives_reference(sample, params):
    y, c, m = sample.uncensored, sample.censor_times, sample.m
    sy, syy = math.fsum(y.tolist()), math.fsum((y * y).tolist())
    eta, tau = params.to_concave()
    a = tau * c - eta
    lam = mills_reference(a)
    k = np.clip(lam * (lam - a), 0.0, 1.0)
    kc = k * c
    g = (tau * sy - m * eta + float(np.sum(lam)),
         m * params.sigma - (tau * syy - eta * sy) - float(np.sum(c * lam)))
    cross = sy + float(np.sum(kc))
    h = ((-m - float(np.sum(k)), cross),
         (cross, -m * params.sigma2 - syy - float(np.sum(kc * c))))
    return g, h


def loglik_reference(sample, params):
    lp = params.logpdf(sample.uncensored)
    if np.any(np.isneginf(lp)):
        return -math.inf
    return math.fsum(np.concatenate([lp, params.log_survival(sample.censor_times)]).tolist())


def bits(values):
    """Floats, nested in tuples, or an array as bytes: equal only if equal bit
    for bit, -0.0 included."""
    if isinstance(values, tuple):
        return b"".join(bits(v) for v in values)
    return np.asarray(values, dtype=float).tobytes()


# Bound layouts: spread on both sides of mu, drawn from a few tied values,
# all equal (Type-II), signed zeros among them, and standardized bounds
# beyond +-38 where the hazard's two branches meet their limits.
LAYOUTS = ["spread", "ties", "type2", "zeros", "far"]


def normal_sample(n, censored_share, layout, mu, sigma, seed):
    rng = np.random.default_rng(seed)
    censored = rng.uniform(size=n) < censored_share
    censored[0] = False                             # at least one exact value
    x = rng.normal(mu, sigma, n)
    d = int(censored.sum())
    if layout == "spread":
        c = rng.normal(mu, 2.0 * sigma, d)
    elif layout == "ties":
        c = rng.choice(mu + sigma * np.array([-3.0, -0.5, 0.0, 0.25, 2.0]), d)
    elif layout == "type2":
        c = np.full(d, mu + sigma * rng.normal())
    elif layout == "zeros":
        c = rng.choice(np.array([0.0, -0.0, mu, -1.0, 1.0]), d)
    else:
        c = mu + sigma * rng.choice(np.array([-1e3, -40.0, -38.5, -37.0, 0.0, 38.5, 40.0, 1e3]), d)
    w = x.copy()
    w[censored] = c
    return CensoredSample(w, (~censored).astype(int))


class TestSortedBitIdentity:
    """E-step, Newton derivatives and log-likelihood equal their references bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3000), censored_share=st.sampled_from([0.1, 0.5, 0.9]),
           layout=st.sampled_from(LAYOUTS), mu=st.sampled_from([0.0, -0.0, 1.5, -250.0]),
           sigma=st.sampled_from([1.0, 0.3, 17.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_normal_hot_path(self, n, censored_share, layout, mu, sigma, seed):
        sample = normal_sample(n, censored_share, layout, mu, sigma, seed)
        params = Normal(mu + 0.1 * sigma, sigma * sigma)
        if mu == 0.0:                        # mu = +-0 makes the zero bounds +-0 arguments
            params = Normal(mu, sigma * sigma)
        assert bits(e_step(sample, params)) == bits(e_step_reference(sample, params))
        assert (bits(params.concave_derivatives(sample))
                == bits(concave_derivatives_reference(sample, params)))
        assert bits(observed_loglik(sample, params)) == bits(loglik_reference(sample, params))

    def test_reaches_the_extraction_path_and_both_branches(self):
        # 2000 of 3000 units censored at bounds on both sides of mu: the sums
        # are long enough for extraction, and the hazard takes both branches
        sample = normal_sample(3000, 0.67, "spread", 0.0, 1.0, 5)
        params = Normal(0.0, 1.0)
        assert np.any(sample.censor_times < 0.0) and np.any(sample.censor_times > 0.0)
        assert bits(e_step(sample, params)) == bits(e_step_reference(sample, params))
        assert (bits(params.concave_derivatives(sample))
                == bits(concave_derivatives_reference(sample, params)))


ARGUMENTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 38.5, -38.5, 40.0, -40.0, 1e300, -1e300, math.inf, -math.inf]),
)


class TestMillsRatioOrder:
    """The public ``mills_ratio`` sorts, evaluates and scatters back: each value
    is the reference's bits at its own position, for any order and shape."""

    @settings(max_examples=150, deadline=None)
    @given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                        elements=ARGUMENTS))
    @np.errstate(all="ignore")              # -1e300 squared overflows in either
    def test_unsorted_and_two_dimensional(self, a):
        got = mills_ratio(a)
        assert got.shape == a.shape
        assert bits(got) == bits(mills_reference(a))

    @given(a=ARGUMENTS)
    @np.errstate(all="ignore")
    def test_scalar(self, a):
        got = mills_ratio(a)
        assert isinstance(got, float)
        assert bits(got) == bits(mills_reference(a))
