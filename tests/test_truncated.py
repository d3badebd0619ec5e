"""Truncated samplers against quadrature, KS, and closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtri

from cemfit.distributions import Laplace, Normal, Rayleigh, norm_sf
from cemfit.exceptions import NumericRangeError, ParameterError, TailUnderflowError
from cemfit.streams import RandomStream
from cemfit.truncated import (
    sample_truncated_laplace,
    sample_truncated_normal,
    sample_truncated_rayleigh,
)

U_GRID = np.array([1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5,
                   0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9])

# (mu/None, sigma/beta, lower) grids spanning standardized truncation in [-5, 5]
NORMAL_CASES = [(0.0, 1.0, -5.0), (0.0, 1.0, 0.0), (0.0, 1.0, 2.5),
                (1.7, 0.0632, 1.778), (-4.0, 3.0, 11.0), (50.0, 4.7, 54.94)]
LAPLACE_CASES = [(0.0, 1.0, -5.0), (0.0, 1.0, -1.0), (0.0, 1.0, -0.1),
                 (0.0, 1.0, 0.0), (0.0, 1.0, 3.0), (49.8, 4.7, 54.94),
                 (10.0, 2.0, 0.0)]
RAYLEIGH_CASES = [(1.0, 0.0), (1.0, 1.0), (6.13, 10.627), (0.5, 2.4), (100.0, 30.0)]


def truncated_cdf_normal(mu, sigma, lower, x):
    ref = stats.norm(mu, sigma)
    return (ref.sf(lower) - ref.sf(x)) / ref.sf(lower)


def truncated_cdf_laplace(mu, sigma, lower, x):
    ref = stats.laplace(mu, sigma)
    return (ref.sf(lower) - ref.sf(x)) / ref.sf(lower)


def truncated_cdf_rayleigh(beta, lower, x):
    ref = stats.rayleigh(scale=beta)
    return (ref.sf(lower) - ref.sf(x)) / ref.sf(lower)


class TestInverseTransformIdentity:
    """Applying the truncated cdf to a draw recovers the generating uniform.

    The normal sampler and the below-location Laplace branch invert the
    conditional cdf, so the recovered uniform is u itself.  The at-or-above-
    location Laplace branch and the Rayleigh sampler invert the conditional
    survival function (x = lower - sigma log u and x = sqrt(lower^2 -
    2 beta^2 log u)), so the recovered uniform is 1 - u; both conventions are
    exact inversions since U and 1-U are equidistributed.  The grid is
    symmetric, so each convention is exercised at the same u values.
    """

    @pytest.mark.parametrize("mu,sigma,lower", NORMAL_CASES)
    def test_normal(self, mu, sigma, lower):
        x = sample_truncated_normal(Normal.from_reported(mu, sigma), lower, U_GRID)
        back = truncated_cdf_normal(mu, sigma, lower, x)
        assert np.max(np.abs(back - U_GRID)) <= 1e-8

    @pytest.mark.parametrize("mu,sigma,lower", LAPLACE_CASES)
    def test_laplace(self, mu, sigma, lower):
        x = sample_truncated_laplace(Laplace(mu, sigma), lower, U_GRID)
        back = truncated_cdf_laplace(mu, sigma, lower, x)
        target = (1.0 - U_GRID) if lower >= mu else U_GRID
        assert np.max(np.abs(back - target)) <= 1e-8

    @pytest.mark.parametrize("beta,lower", RAYLEIGH_CASES)
    def test_rayleigh(self, beta, lower):
        x = sample_truncated_rayleigh(Rayleigh(beta), lower, U_GRID)
        back = truncated_cdf_rayleigh(beta, lower, x)
        assert np.max(np.abs(back - (1.0 - U_GRID))) <= 1e-8


class TestClosedFormPoints:
    def test_normal_untruncated_median(self):
        # a bound 50 sigma below the mean is no bound at all
        assert sample_truncated_normal(Normal(0.0, 1.0), -50.0, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_normal_half_line_mean(self):
        u = RandomStream(2024).uniforms(1_000_000)
        draws = sample_truncated_normal(Normal(0.0, 1.0), 0.0, u)
        assert draws.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=0.002)

    def test_laplace_boundary_case_log_inversion(self):
        # lower = mu: exponential tail, x = lower - sigma log u
        x = sample_truncated_laplace(Laplace(0.0, 1.0), 0.0, math.exp(-1.0))
        assert x == pytest.approx(1.0, rel=1e-15)

    def test_laplace_split_point_maps_to_location(self):
        er = math.exp(-1.0)
        h = (1.0 - er) / (2.0 - er)
        assert h == pytest.approx(0.3873, abs=1e-4)
        assert sample_truncated_laplace(Laplace(0.0, 1.0), -1.0, h) == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_closed_form_point(self):
        x = sample_truncated_rayleigh(Rayleigh(1.0), 0.0, math.exp(-0.5))
        assert x == pytest.approx(1.0, rel=1e-15)


class TestBranchContinuity:
    @pytest.mark.parametrize("r", [-5.0, -1.0, -0.1])
    def test_laplace_branches_agree_at_split(self, r):
        # both inversion formulas, evaluated independently of the sampler
        mu, sigma = 0.0, 1.0
        er = math.exp(r)
        h = (1.0 - er) / (2.0 - er)
        below = mu + sigma * math.log(2.0 * h + (1.0 - h) * er)
        above = mu - sigma * math.log(2.0 * (1.0 - h) - (1.0 - h) * er)
        assert abs(below - above) <= 1e-12
        assert below == pytest.approx(mu, abs=1e-12)

    @pytest.mark.parametrize("r", [-5.0, -1.0, -0.1])
    def test_sampler_is_continuous_across_split(self, r):
        mu, sigma = 2.0, 0.7
        lower = mu + sigma * r
        er = math.exp(r)
        h = (1.0 - er) / (2.0 - er)
        eps = 1e-12
        left = sample_truncated_laplace(Laplace(mu, sigma), lower, h - eps)
        right = sample_truncated_laplace(Laplace(mu, sigma), lower, h + eps)
        assert abs(left - right) <= 1e-10


class TestMomentsAgainstQuadrature:
    def _check_moments(self, draws, pdf, sf_at_lower, lower, upper):
        mean, _ = quad(lambda t: t * pdf(t) / sf_at_lower, lower, upper, limit=200)
        second, _ = quad(lambda t: t * t * pdf(t) / sf_at_lower, lower, upper, limit=200)
        n = draws.size
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        se_second = (draws**2).std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - mean) <= 4 * se_mean
        assert abs((draws**2).mean() - second) <= 4 * se_second

    def test_normal_moments(self):
        mu, sigma, lower = 1.7, 0.0632, 1.778
        u = RandomStream(11).substream(1).uniforms(200_000)
        draws = sample_truncated_normal(Normal.from_reported(mu, sigma), lower, u)
        ref = stats.norm(mu, sigma)
        self._check_moments(draws, ref.pdf, ref.sf(lower), lower, mu + 12 * sigma)

    def test_laplace_moments_interior_truncation(self):
        mu, sigma, lower = 0.0, 1.0, -1.0
        u = RandomStream(11).substream(2).uniforms(1_000_000)
        draws = sample_truncated_laplace(Laplace(mu, sigma), lower, u)
        ref = stats.laplace(mu, sigma)
        mean, _ = quad(lambda t: t * ref.pdf(t) / ref.sf(lower), lower, 40.0,
                       points=[0.0], limit=200)
        assert draws.mean() == pytest.approx(mean, abs=0.005)

    def test_rayleigh_moments(self):
        beta, lower = 1.0, 1.0
        u = RandomStream(11).substream(3).uniforms(1_000_000)
        draws = sample_truncated_rayleigh(Rayleigh(beta), lower, u)
        ref = stats.rayleigh(scale=beta)
        mean, _ = quad(lambda t: t * ref.pdf(t) / ref.sf(lower), lower, 30.0, limit=200)
        assert draws.mean() == pytest.approx(mean, abs=0.005)
        self._check_moments(draws, ref.pdf, ref.sf(lower), lower, 30.0)


class TestDistributionalCorrectness:
    """One-sample KS statistic at n = 1e5 against the truncated cdf.

    The 0.001-significance critical value is 1.9495 / sqrt(n); the draws are
    seeded, so the test is deterministic.
    """

    N = 100_000
    D_CRIT = 1.9495 / math.sqrt(100_000)

    def _ks(self, draws, tcdf):
        x = np.sort(draws)
        grid = np.arange(1, x.size + 1) / x.size
        values = tcdf(x)
        return max(np.max(np.abs(grid - values)),
                   np.max(np.abs(grid - 1.0 / x.size - values)))

    def test_normal(self):
        u = RandomStream(31).substream(1).uniforms(self.N)
        draws = sample_truncated_normal(Normal.from_reported(1.7, 0.0632), 1.778, u)
        d = self._ks(draws, lambda x: truncated_cdf_normal(1.7, 0.0632, 1.778, x))
        assert d < self.D_CRIT

    def test_laplace(self):
        u = RandomStream(31).substream(2).uniforms(self.N)
        draws = sample_truncated_laplace(Laplace(0.0, 1.0), -1.0, u)
        d = self._ks(draws, lambda x: truncated_cdf_laplace(0.0, 1.0, -1.0, x))
        assert d < self.D_CRIT

    def test_rayleigh(self):
        u = RandomStream(31).substream(3).uniforms(self.N)
        draws = sample_truncated_rayleigh(Rayleigh(6.13), 10.627, u)
        d = self._ks(draws, lambda x: truncated_cdf_rayleigh(6.13, 10.627, x))
        assert d < self.D_CRIT


class TestSupportAndGuards:
    def test_draws_strictly_exceed_bound(self):
        u = RandomStream(8).uniforms(100_000)
        for r in np.linspace(-5, 5, 11):
            assert np.all(sample_truncated_normal(Normal(0.0, 1.0), r, u) > r)
            assert np.all(sample_truncated_laplace(Laplace(0.0, 1.0), r, u) > r)
            lower = r + 5.0  # shift into the Rayleigh support
            assert np.all(sample_truncated_rayleigh(Rayleigh(1.0), lower, u) > lower)

    def test_tail_underflow_raises(self):
        with pytest.raises(TailUnderflowError):
            sample_truncated_normal(Normal(0.0, 1.0), 9.0, 0.5)
        # error carries the numeric-range category
        with pytest.raises(NumericRangeError):
            sample_truncated_normal(Normal(0.0, 1.0), 40.0, 0.5)

    def test_largest_uniform_below_the_location(self):
        # the cdf norm_sf(-r) plus u * tail rounds to 1 at this bound when u = 1 - 2**-53
        lower, u = -1.4052449648204721, 1.0 - 2.0**-53
        x = sample_truncated_normal(Normal(0.0, 1.0), lower, u)
        assert math.isfinite(x) and x > lower
        xs = sample_truncated_normal(Normal(0.0, 1.0), np.array([[lower], [0.5]]),
                                     np.array([[0.5, u], [0.5, u]]))
        assert np.all(np.isfinite(xs)) and np.all(xs > np.array([[lower], [0.5]]))
        assert xs[0, 1] == x

    def test_moderate_tail_does_not_raise(self):
        x = sample_truncated_normal(Normal(0.0, 1.0), 7.0, 0.5)
        assert x > 7.0

    def test_uniform_domain_enforced(self):
        for bad in (0.0, 1.0, -0.25, 1.25):
            with pytest.raises(ParameterError):
                sample_truncated_normal(Normal(0.0, 1.0), 0.0, bad)
        with pytest.raises(ParameterError):
            sample_truncated_rayleigh(Rayleigh(1.0), 0.0, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("sampler, params", [
        (sample_truncated_normal, Normal(0.0, 1.0)),
        (sample_truncated_laplace, Laplace(0.0, 1.0)),
    ], ids=["normal", "laplace"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_is_named(self, sampler, params, bad):
        # a non-finite bound once came back as a NaN or infinite draw, or was
        # blamed on the uniforms
        with pytest.raises(ParameterError, match=f"^truncation point must be finite, got {bad}"):
            sampler(params, bad, 0.5)
        with pytest.raises(ParameterError, match=f"^truncation point must be finite, got {bad}"):
            sampler(params, np.array([[0.0], [bad]]), np.full((2, 3), 0.5))

    def test_rayleigh_names_a_non_finite_bound(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=f"^truncation point must be finite, got {bad}"):
                sample_truncated_rayleigh(Rayleigh(1.0), bad, 0.5)

    def test_scalar_in_scalar_out(self):
        x = sample_truncated_normal(Normal(0.0, 1.0), 0.0, 0.5)
        assert isinstance(x, float)
        xs = sample_truncated_normal(Normal(0.0, 1.0), 0.0, np.array([0.25, 0.5]))
        assert isinstance(xs, np.ndarray)


class TestColumnBounds:
    """A (rows, 1) column of bounds against a (rows, K) block: each row equals
    the scalar call on its own bound, whichever branch the row takes."""

    U = RandomStream(21).uniforms(7 * 50).reshape(7, 50)

    @pytest.mark.parametrize("sampler, params, bounds", [
        (sample_truncated_normal, Normal(0.0, 1.0), [-5.0, 2.5, -0.1, 0.0, 7.0, -1.0, 3.0]),
        (sample_truncated_laplace, Laplace(0.0, 1.0), [-5.0, 3.0, -0.1, 0.0, 9.0, -1.0, 0.5]),
        (sample_truncated_rayleigh, Rayleigh(1.0), [0.0, 1.0, 2.5, 0.1, 6.0, 0.0, 3.0]),
    ], ids=["normal", "laplace", "rayleigh"])
    def test_rows_equal_scalar_calls(self, sampler, params, bounds):
        block = sampler(params, np.array(bounds)[:, None], self.U)
        assert block.shape == self.U.shape
        for row, bound, u in zip(block, bounds, self.U):
            np.testing.assert_array_equal(row, sampler(params, bound, u))

    def test_tail_refusal_names_the_deepest_row(self):
        bounds = np.array([[0.0], [40.7], [9.0], [1.0]])
        with pytest.raises(TailUnderflowError, match=r"tail mass 0\.000e\+00 "
                                                     r"\(standardized bound 40\.7\)"):
            sample_truncated_normal(Normal(0.0, 1.0), bounds, self.U[:4])

    def test_rayleigh_rejects_a_negative_row(self):
        with pytest.raises(ParameterError, match="got -0.5"):
            sample_truncated_rayleigh(Rayleigh(1.0), np.array([[1.0], [-0.5]]), self.U[:2])
        with pytest.raises(ParameterError, match="^truncation point must be nonnegative, got -0.5"):
            sample_truncated_rayleigh(Rayleigh(1.0), -0.5, 0.5)

    def test_column_needs_one_row_of_uniforms_each(self):
        with pytest.raises(ParameterError):
            sample_truncated_normal(Normal(0.0, 1.0), np.array([[0.0], [1.0]]), self.U[:3])
        with pytest.raises(ParameterError):
            sample_truncated_laplace(Laplace(0.0, 1.0), np.array([0.0, 1.0]), self.U[:2])


SAMPLER_BRANCHES = [
    # (sampler, params, bounds): every bound on one branch of the sampler
    (sample_truncated_normal, Normal(0.0, 1.0), [0.0, 2.5, 1.0]),
    (sample_truncated_normal, Normal(0.0, 1.0), [-5.0, -0.1, -1.0]),
    (sample_truncated_laplace, Laplace(0.0, 1.0), [0.0, 3.0, 9.0]),
    (sample_truncated_laplace, Laplace(0.0, 1.0), [-5.0, -0.1, -1.0]),
    (sample_truncated_rayleigh, Rayleigh(1.0), [0.0, 2.5, 6.0]),
    # a mixed chunk: rows on both branches in one call
    (sample_truncated_normal, Normal(0.0, 1.0), [0.0, -1.0, 2.5]),
    (sample_truncated_laplace, Laplace(0.0, 1.0), [-1.0, 3.0, -0.1]),
]
BRANCH_IDS = ["normal-upper", "normal-interior", "laplace-upper", "laplace-interior", "rayleigh",
              "normal-mixed", "laplace-mixed"]


class TestUniformsArgument:
    """The samplers work in place on arrays they allocate; the caller's ``u``
    is never written, and NaN uniforms are refused like any value outside (0, 1)."""

    U = RandomStream(33).uniforms(3 * 40).reshape(3, 40)

    @pytest.mark.parametrize("sampler, params, bounds", SAMPLER_BRANCHES, ids=BRANCH_IDS)
    def test_u_is_not_modified(self, sampler, params, bounds):
        u = self.U.copy()
        sampler(params, np.array(bounds)[:, None], u)
        np.testing.assert_array_equal(u, self.U)
        row = u[1].copy()
        sampler(params, bounds[1], row)
        np.testing.assert_array_equal(row, self.U[1])
        whole = u.copy()
        sampler(params, bounds[0], whole)  # a scalar bound takes the whole block as one row
        np.testing.assert_array_equal(whole, self.U)

    @pytest.mark.parametrize("sampler, params, bounds", SAMPLER_BRANCHES, ids=BRANCH_IDS)
    def test_nan_inside_a_row_block_is_refused(self, sampler, params, bounds):
        u = self.U.copy()
        u[1, 17] = np.nan
        with pytest.raises(ParameterError):
            sampler(params, np.array(bounds)[:, None], u)
        with pytest.raises(ParameterError):
            sampler(params, bounds[1], u[1])
        with pytest.raises(ParameterError):
            sampler(params, bounds[1], np.nan)

    def test_in_place_branches_keep_the_reference_arithmetic(self):
        # the out-of-place formulas these branches were written as, bit for bit,
        # with the normal quantile as two np.where passes
        u, bounds = self.U, np.array([[0.0], [2.5], [6.0]])
        params, mixed = Normal.from_reported(0.3, 1.7), np.array([[-2.0], [0.3], [2.9]])
        mu, sigma = params.mu, params.sigma

        def ppf(p):
            upper = p > 0.5
            x = ndtri(np.where(upper, 1.0 - p, p))
            return np.where(upper, -x, x)

        r = (mixed - mu) / sigma
        tail = norm_sf(r)
        inner = np.minimum(norm_sf(-r) + u * tail, 1.0 - 2.0**-53)
        normal = np.where(r >= 0.0, mu - sigma * ppf(tail * (1.0 - u)), mu + sigma * ppf(inner))
        cases = [
            (sample_truncated_rayleigh(Rayleigh(1.3), bounds, u),
             np.sqrt(bounds * bounds - 2.0 * 1.3 * 1.3 * np.log(u)), bounds),
            (sample_truncated_laplace(Laplace(-0.2, 0.7), bounds, u),
             bounds - 0.7 * np.log(u), bounds),
            (sample_truncated_normal(params, mixed, u), normal, mixed),
        ]
        for got, expected, lower in cases:
            expected = np.maximum(expected, np.nextafter(lower, np.inf))
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestWorkingMemory:
    """One sampler call on a (1, K) block holds its draws and at most one
    other array of that size."""

    K = 50_000
    U = RandomStream(5).uniforms(K).reshape(1, K)

    @pytest.mark.parametrize("bound", [0.5, -0.5], ids=["upper", "interior"])
    def test_normal_sampler_peaks_below_two_and_a_half_rows(self, bound):
        lower = np.array([[bound]])
        sample_truncated_normal(Normal(0.0, 1.0), lower, self.U)  # warm-up: lazy imports
        tracemalloc.start()
        try:
            sample_truncated_normal(Normal(0.0, 1.0), lower, self.U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * self.U.nbytes
