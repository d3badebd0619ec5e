"""Exact EM for censored normal data: moments, updates, and ascent."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from cemfit.censoring import CensoredSample, from_type2, observed_loglik
from cemfit.datasets import example_normal
from cemfit.direct import loglik_gradient_norm
from cemfit.distributions import Family, Normal
from cemfit.em import NormalSuffStats, e_step, fit_em, m_step
from cemfit.exceptions import (
    DataError,
    DegenerateDataError,
    ParameterError,
)
from cemfit.fitting import Algorithm, FitConfig

import reference_values as rv


def quadrature_truncated_moments(mu, sigma, lower):
    """Independent E[Z | Z > lower] and E[Z^2 | Z > lower] via quadrature."""
    ref = stats.norm(mu, sigma)
    tail = ref.sf(lower)
    hi = max(lower, mu) + 13 * sigma
    first, _ = quad(lambda z: z * ref.pdf(z) / tail, lower, hi, limit=300)
    second, _ = quad(lambda z: z * z * ref.pdf(z) / tail, lower, hi, limit=300)
    return first, second


class TestEStep:
    def test_complete_data_has_empty_censored_sums(self):
        rng = np.random.default_rng(0)
        w = rng.normal(2.0, 1.0, size=12)
        s = CensoredSample(w, np.ones(12, dtype=int))
        stats_ = e_step(s, Normal(1.5, 2.0))
        assert stats_.s1 == 0.0 and stats_.s2 == 0.0
        assert stats_.t1 == pytest.approx(w.sum(), rel=1e-15)
        assert stats_.t2 == pytest.approx((w**2).sum(), rel=1e-15)
        # one M-step then lands on the complete-data MLE
        nxt = m_step(stats_, s.n)
        assert nxt.mu == pytest.approx(w.mean(), rel=1e-14)
        assert nxt.sigma2 == pytest.approx(w.var(), rel=1e-13)

    def test_single_censored_unit_half_line(self):
        s = CensoredSample([0.0], [0])
        stats_ = e_step(s, Normal(0.0, 1.0))
        assert stats_.s1 == pytest.approx(math.sqrt(2 / math.pi), abs=1e-10)
        assert stats_.s2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [(1.7, 0.004), (0.0, 1.0), (1.7422, 0.0791**2),
                                       (1.0, 0.25), (2.5, 4.0)])
    def test_censored_moments_match_quadrature(self, theta):
        sample = example_normal()
        params = Normal(*theta)
        stats_ = e_step(sample, params)
        sigma = math.sqrt(params.sigma2)
        total_first = total_second = 0.0
        for lower in sample.censor_times:
            first, second = quadrature_truncated_moments(params.mu, sigma, lower)
            total_first += first
            total_second += second
        assert stats_.s1 == pytest.approx(total_first, rel=1e-9)
        assert stats_.s2 == pytest.approx(total_second, rel=1e-9)

    def test_conditional_means_exceed_truncation_points(self):
        sample = example_normal()
        stats_ = e_step(sample, Normal(0.0, 1.0))
        assert stats_.s1 >= sample.censor_times.sum()

    def test_uncensored_sums_satisfy_cauchy_schwarz(self):
        sample = example_normal()
        stats_ = e_step(sample, Normal(0.0, 1.0))
        assert stats_.t2 >= stats_.t1**2 / sample.m

    def test_deep_tail_bound_is_exact(self):
        # 100 sd out: mpmath's E[Z | Z > 100] = h(100) and E[Z^2 | Z > 100]
        # = 1 + 100 h(100), both equal to these doubles
        s = CensoredSample([0.0, 100.0], [1, 0])
        stats_ = e_step(s, Normal(0.0, 1.0))
        assert stats_.s1 == 100.00999800099926
        assert stats_.s2 == 10001.999800099926

    def test_one_step_from_reference_start(self):
        sample = example_normal()
        nxt = m_step(e_step(sample, Normal(1.7, 0.004)), sample.n)
        mu, sigma = nxt.reported()
        assert f"{mu:.4f}" == "1.7358"
        assert f"{sigma:.4f}" == "0.0702"


class TestMStep:
    def test_hand_arithmetic(self):
        nxt = m_step(NormalSuffStats(t1=3.0, t2=5.0, s1=0.0, s2=0.0), n=3)
        assert nxt.mu == pytest.approx(1.0)
        assert nxt.sigma2 == pytest.approx(2.0 / 3.0)

    def test_fixed_point_of_bundled_data(self):
        sample = example_normal()
        params = Normal(1.7422, 0.0791**2)
        for _ in range(3):
            params = m_step(e_step(sample, params), sample.n)
        mu, sigma = params.reported()
        assert f"{mu:.4f}" == "1.7422"
        assert f"{sigma:.4f}" == "0.0791"

    def test_degenerate_stats_raise(self):
        with pytest.raises(DegenerateDataError):
            m_step(NormalSuffStats(t1=4.0, t2=4.0, s1=0.0, s2=0.0), n=4)


class TestFitEm:
    def _config(self, start=None, **kw):
        return FitConfig(Family.NORMAL, Algorithm.EM, start=start, **kw)

    def test_trace_row_zero_is_start(self):
        trace = fit_em(example_normal(), self._config(start=Normal(1.7, 0.004)))
        assert trace.rows[0].s == 0
        assert trace.rows[0].params == Normal(1.7, 0.004)

    def test_reference_trace_first_start(self):
        trace = fit_em(example_normal(), self._config(start=Normal(1.7, 0.004),
                                                      max_iter=12, tol=1e-12))
        got = [row.params.reported() for row in trace.rows[1:13]]
        for (mu, sigma), (emu, esigma) in zip(got, rv.EM_NORMAL_TRACE_START_A):
            assert f"{mu:.4f}" == f"{emu:.4f}"
            assert f"{sigma:.4f}" == f"{esigma:.4f}"

    def test_reference_trace_second_start(self):
        trace = fit_em(example_normal(), self._config(start=Normal(0.0, 1.0),
                                                      max_iter=12, tol=1e-12))
        got = [row.params.reported() for row in trace.rows[1:13]]
        for (mu, sigma), (emu, esigma) in zip(got, rv.EM_NORMAL_TRACE_START_B):
            assert f"{mu:.4f}" == f"{emu:.4f}"
            assert f"{sigma:.4f}" == f"{esigma:.4f}"

    def test_loglik_column_nondecreasing(self):
        trace = fit_em(example_normal(), self._config(start=Normal(0.0, 1.0)))
        logliks = trace.logliks()
        assert all(b >= a - 1e-10 for a, b in zip(logliks, logliks[1:]))

    def test_convergence_flag_and_stability(self):
        trace = fit_em(example_normal(), self._config())
        assert trace.converged
        last, prev = trace.rows[-1], trace.rows[-2]
        delta = np.abs(np.array(last.params.reported()) - np.array(prev.params.reported()))
        assert delta.max() < 1e-8

    def test_budget_exhaustion_flags_nonconvergence(self):
        trace = fit_em(example_normal(), self._config(start=Normal(0.0, 1.0),
                                                      max_iter=2))
        assert not trace.converged
        assert trace.iterations == 2

    def test_complete_data_converges_in_one_step(self):
        rng = np.random.default_rng(5)
        w = rng.normal(10.0, 3.0, size=30)
        s = CensoredSample(w, np.ones(30, dtype=int))
        trace = fit_em(s, self._config(start=Normal(-4.0, 9.0)))
        assert trace.converged
        assert trace.rows[1].params.mu == pytest.approx(w.mean(), rel=1e-14)
        assert trace.rows[1].params.sigma2 == pytest.approx(w.var(), rel=1e-13)
        assert trace.iterations <= 2  # second step only confirms the fixed point

    def test_rejects_mismatched_config(self):
        with pytest.raises(ParameterError, match="^fit_em called with algorithm mcem$"):
            fit_em(example_normal(), FitConfig(Family.NORMAL, Algorithm.MCEM))

    def test_rejects_all_censored_sample(self):
        s = CensoredSample([1.0, 2.0], [0, 0])
        with pytest.raises(DataError, match="^all observations are censored: likelihood "
                           "unbounded; estimation refused$"):
            fit_em(s, self._config())


# sha256 of FitTrace.to_csv() for the bundled normal sample: (FitConfig
# overrides, rows, converged) -> hash.  The sweep loop is shared with MCEM,
# and no refactor of it may move a byte of an EM trace.
GOLDEN_EM_TRACES = [
    ({}, 22, True, "cf297a3df95c4e6c94c678b32425da915a2260f090f8c56ac373b7d9c83f933d"),
    ({"start": Normal(0.0, 1.0), "tol": 1e-12, "max_iter": 5000}, 38, True,
     "2b128382f6503a00aee7559d258c9a41f63e3ca399976aae8e9fc69c2914c042"),
    ({"max_iter": 3}, 4, False,
     "35e0eb5919af09e4c4af450d3880d3b12ebf38fbf9e666f3d36fdf04a91c1e5c"),
    ({"start": Normal(1.7, 0.004)}, 22, True,
     "9a298c61436fd6343d7640b1979199d4f8c6e6cd44202412101296bd58d1318f"),
]


@pytest.mark.parametrize("overrides, rows, converged, digest", GOLDEN_EM_TRACES,
                         ids=["default", "far-start-tight-tol", "budget-3", "start-a"])
def test_em_traces_are_byte_identical_to_golden(overrides, rows, converged, digest):
    trace = fit_em(example_normal(), FitConfig(Family.NORMAL, Algorithm.EM, **overrides))
    assert (len(trace.rows), trace.converged) == (rows, converged)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == digest


class TestAscentProperty:
    """Likelihood never decreases across iterations on randomized datasets."""

    def _random_censored_sample(self, rng):
        n = int(rng.integers(5, 201))
        frac = float(rng.uniform(0.0, 0.8))
        mu = float(rng.uniform(-5.0, 5.0))
        sigma = float(rng.uniform(0.2, 3.0))
        x = rng.normal(mu, sigma, size=n)
        censor = np.quantile(x, 1.0 - frac) if frac > 0 else np.inf
        w = np.minimum(x, censor)
        delta = (x <= censor).astype(int)
        return CensoredSample(w, delta)

    def test_ascent_and_stationarity_on_random_datasets(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 25:
            sample = self._random_censored_sample(rng)
            if sample.m < 2 or np.var(sample.uncensored) == 0.0:
                continue
            checked += 1
            trace = fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM,
                                             tol=1e-10, max_iter=3000))
            logliks = trace.logliks()
            assert all(b >= a - 1e-10 for a, b in zip(logliks, logliks[1:]))
            assert trace.converged
            assert loglik_gradient_norm(sample, trace.final) <= 1e-5
