"""Monte Carlo EM steps, the weighted median, and reproducibility."""

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cemfit.censoring import CensoredSample, from_type2
from cemfit.datasets import example_laplace, example_normal, example_rayleigh
from cemfit.distributions import Family, Laplace, Normal, Rayleigh, exact_sum
from cemfit.em import e_step
from cemfit.exceptions import DataError, ParameterError
from cemfit.fitting import Algorithm, FitConfig, default_start
from cemfit import mcem
from cemfit.mcem import (
    fit_mcem,
    mcem_step_laplace,
    mcem_step_normal,
    mcem_step_rayleigh,
    weighted_median,
)
from cemfit.streams import RandomStream
from cemfit.truncated import (
    sample_truncated_laplace,
    sample_truncated_normal,
    sample_truncated_rayleigh,
)

from censored_samples import positive_censoring, random_censoring
import reference_values as rv


def replicate_draws(sample, params, k, stream, sampler):
    """Blocks of conditional draws, addressed exactly like the fit loop."""
    blocks = []
    for idx, bound in zip(sample.censored_indices, sample.censor_times):
        blocks.append(sampler(params, float(bound), stream.substream(int(idx)).uniforms(k)))
    return blocks


def blocks_dropped_before_the_next(blocks):
    """Yield ``blocks``, each only once the consumer holds none of the earlier ones."""
    held = None
    for b in blocks:
        assert held is None or held() is None, "the previous block is still alive"
        # a copy that only the consumer will hold: popped from the box, it is
        # not bound in this frame across the yield
        box = [b.copy()]
        held = weakref.ref(box[0])
        yield box.pop()


class TestAccumulator:
    def test_abs_deviation_is_exact_and_leaves_the_deviations_in_the_blocks(self):
        rng = np.random.default_rng(3)
        blocks = [rng.normal(0.0, 1.0, (4, 9)), rng.normal(2.0, 3.0, (1, 9))]
        kept = [b.copy() for b in blocks]
        got = mcem.MonteCarloAccumulator.abs_deviation(blocks, 0.25)
        # the exactly rounded total of the per-unit row sums
        assert got == math.fsum(np.abs(np.concatenate(kept) - 0.25).sum(axis=1))
        # each block is overwritten in place with |b - center|
        for b, k in zip(blocks, kept):
            np.testing.assert_array_equal(b, np.abs(k - 0.25))

    def test_totals_of_the_draws_and_their_squares(self):
        blocks = [np.ones((2, 3)), np.full((1, 3), -2.0)]
        acc = mcem.MonteCarloAccumulator.from_blocks(iter(blocks))
        assert (acc.v1, acc.v2) == (0.0, 18.0)
        for b, square in zip(blocks, (1.0, 4.0)):
            np.testing.assert_array_equal(b, np.full(b.shape, square))

    @pytest.mark.parametrize("consume", [
        mcem.MonteCarloAccumulator.from_blocks,
        lambda blocks: mcem.MonteCarloAccumulator.abs_deviation(blocks, 0.5),
    ], ids=["from_blocks", "abs_deviation"])
    def test_each_block_is_dropped_before_the_next_is_drawn(self, consume):
        # a consumer that kept its last block while the next one is drawn
        # would hold one more row of K draws at every large-K unit
        blocks = [np.full((1, 5), float(i)) for i in range(4)]
        expected = consume([b.copy() for b in blocks])
        assert consume(blocks_dropped_before_the_next(blocks)) == expected


def materialized_median(values, k, singles=()):
    parts = [np.repeat(np.asarray(values, dtype=float), k)]
    return float(np.median(np.concatenate(parts + [np.ravel(s) for s in singles])))


class TestWeightedMedian:
    def test_matches_brute_force_on_random_multisets(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            values = np.round(rng.normal(0, 10, size=int(rng.integers(1, 12))), 3)
            k = int(rng.integers(1, 100))
            assert weighted_median(values, k) == materialized_median(values, k)

    def test_singles_count_once_on_random_multisets(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            values = np.round(rng.normal(0, 10, size=int(rng.integers(1, 12))), 1)
            k = int(rng.integers(1, 5))
            singles = [np.round(rng.normal(0, 10, size=(int(rng.integers(1, 3)),
                                                        int(rng.integers(0, 9)))), 1)
                       for _ in range(int(rng.integers(1, 4)))]
            assert weighted_median(values, k, singles) == materialized_median(values, k, singles)

    def test_even_total_averages_the_middle_pair(self):
        assert weighted_median([1.0, 10.0], 1, [np.array([2.0, 10.0])]) == 6.0
        assert weighted_median([3.0, 7.0], 1) == 5.0
        assert weighted_median([3.0, 7.0], 4) == 5.0

    def test_odd_total_returns_exact_element(self):
        assert weighted_median([5.0, 1.0, 3.0], 1) == 3.0
        assert weighted_median([2.0, 9.0], 3, [np.array([[9.0]])]) == 9.0
        assert weighted_median([2.0, 9.0], 3, [np.array([1.0])]) == 2.0

    def test_single_point_masses(self):
        assert weighted_median([4.5], 7) == 4.5
        assert weighted_median([4.5], 1) == 4.5
        assert weighted_median([4.5], 7, [np.array([8.0, 9.0])]) == 4.5

    @pytest.mark.parametrize("where", ["above", "some-equal", "below"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("extra", [0, 1], ids=["even", "odd"])
    def test_singles_against_the_largest_value(self, where, k, extra):
        # singles equal to the largest value count as members at most it, so
        # they and it share one rank range; singles above it form the last gap
        rng = np.random.default_rng(5)
        values = np.array([-1.0, 0.5, 2.0])
        draws = {"above": 2.0 + rng.random((3, 7)),
                 "some-equal": np.r_[np.full(5, 2.0), 2.0 + rng.random(16)].reshape(3, 7),
                 "below": 2.0 - 4.0 * rng.random((3, 7))}[where]
        singles = [draws[:2], draws[2:, :4 + (extra + k) % 2]]
        assert (3 * k + sum(p.size for p in singles)) % 2 == extra
        assert weighted_median(values, k, singles) == materialized_median(values, k, singles)

    @pytest.mark.parametrize("seed, lands_on", [(0, "value"), (2, "gap")])
    def test_holds_less_than_one_row_beyond_its_inputs(self, seed, lands_on):
        # 40 held rows of K = 50_000 draws above bounds below the median, as a
        # Laplace step holds them; counting them makes no array of their size
        k = 50_000
        rng = np.random.default_rng(seed)
        values = rng.laplace(0.0, 1.0, 200)
        held = [(b + rng.exponential(1.0, k)).reshape(1, k)
                for b in rng.uniform(-3.0, -0.2, 40)]
        tracemalloc.start()
        try:
            got = weighted_median(values, k, held)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ("value" if got in values else "gap") == lands_on
        assert peak < k * 8

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-20, 20), min_size=1, max_size=12),
           k=st.integers(1, 50),
           singles=st.lists(st.lists(st.integers(-25, 25), max_size=30), max_size=4))
    def test_property_matches_the_materialized_median(self, values, k, singles):
        # small integers (halved) make ties between values and singles common
        values = np.array(values) / 2.0
        singles = [np.array(s, dtype=float).reshape(-1, 1) / 2.0 for s in singles]
        assert weighted_median(values, k, singles) == materialized_median(values, k, singles)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-20, 20), min_size=1, max_size=12),
           k=st.integers(1, 50),
           singles=st.lists(st.integers(-25, 25), max_size=30),
           beyond=st.integers(0, 300))
    def test_beyond_counts_members_above_the_median(self, values, k, singles, beyond):
        # materialized above every other member, the beyond members leave the
        # median where it is unless the larger median rank falls among them
        values = np.array(values) / 2.0
        singles = [np.array(singles, dtype=float) / 2.0]
        total = values.size * k + singles[0].size + beyond
        if total // 2 + 1 <= total - beyond:
            expected = materialized_median(values, k, singles + [np.full(beyond, 99.0)])
            assert weighted_median(values, k, singles, beyond=beyond) == expected
        else:
            with pytest.raises(ParameterError, match="beyond"):
                weighted_median(values, k, singles, beyond=beyond)

    def test_a_median_rank_among_the_beyond_members_raises(self):
        assert weighted_median([1.0], 2, beyond=1) == 1.0
        assert weighted_median([1.0, 3.0], 1, [np.array([2.0])], beyond=2) == 3.0
        for values, k, singles, beyond in [([1.0], 1, [], 1), ([1.0], 1, [], 5),
                                           ([1.0, 3.0], 1, [np.array([2.0])], 3)]:
            with pytest.raises(ParameterError, match="beyond"):
                weighted_median(values, k, singles, beyond=beyond)

    def test_beyond_must_be_a_nonnegative_integer(self):
        for beyond in (-1, 1.5, 2.0, math.nan):
            with pytest.raises(ParameterError, match="beyond"):
                weighted_median([1.0, 2.0], 3, beyond=beyond)
        assert weighted_median([1.0, 2.0], 3, beyond=np.int64(1)) == 2.0

    def test_domain_errors(self):
        for values, k in [([], 1), ([[1.0, 2.0]], 1), ([1.0, 2.0], 0), ([1.0], -3)]:
            with pytest.raises(ParameterError):
                weighted_median(values, k)
        # a non-integer k is refused, not truncated
        for k in (1.5, 2.0, math.nan):
            with pytest.raises(ParameterError):
                weighted_median([1.0, 2.0], k)
        assert weighted_median([1.0, 2.0, 3.0], np.int64(2)) == 2.0


class TestNormalStep:
    def test_monte_carlo_moments_match_closed_form(self):
        # the exact E-step is an independent oracle for the simulated one
        sample = example_normal()
        params = Normal(1.7422, 0.0791**2)
        k = 1_000_000
        stream = RandomStream(9).substream(1)
        blocks = replicate_draws(sample, params, k, stream, sample_truncated_normal)

        s1, s2 = e_step(sample, params)
        v1 = sum(float(b.sum()) for b in blocks)
        v2 = sum(float((b * b).sum()) for b in blocks)
        se1 = math.sqrt(sum(b.var(ddof=1) / k for b in blocks))
        se2 = math.sqrt(sum((b * b).var(ddof=1) / k for b in blocks))
        assert abs(v1 / k - s1) <= 3 * se1
        assert abs(v2 / k - s2) <= 3 * se2

    def test_step_equals_augmented_sample_mle(self):
        sample = example_normal()
        params = Normal(1.7, 0.004)
        k = 500
        new = mcem_step_normal(sample, params, k, RandomStream(3).substream(1))
        blocks = replicate_draws(sample, params, k, RandomStream(3).substream(1),
                                 sample_truncated_normal)
        pooled = np.concatenate([np.repeat(sample.uncensored, k)] + blocks)
        assert new.mu == pytest.approx(pooled.mean(), rel=1e-12)
        assert new.sigma2 == pytest.approx(pooled.var(), rel=1e-9)

    def test_complete_data_is_one_step_exact(self):
        rng = np.random.default_rng(1)
        w = rng.normal(4.0, 2.0, size=25)
        s = CensoredSample(w, np.ones(25, dtype=int))
        new = mcem_step_normal(s, Normal(0.0, 1.0), 10, RandomStream(0).substream(1))
        assert new.mu == pytest.approx(w.mean(), rel=1e-14)
        assert new.sigma2 == pytest.approx(w.var(), rel=1e-13)


def laplace_step_holding_every_draw(sample, params, k, stream):
    """The Laplace MCEM step with every unit's draws held for the median."""
    y = sample.uncensored
    blocks = list(mcem._draw_blocks(sample, k, stream, sample_truncated_laplace, params))
    loc = weighted_median(y, k, blocks)
    dev = mcem.MonteCarloAccumulator.abs_deviation(blocks, loc)
    return Laplace(loc, (exact_sum(np.abs(y - loc)) + dev / k) / sample.n)


class TestLaplaceStep:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), exact=st.lists(st.integers(-8, 8), min_size=1, max_size=16),
           bounds=st.lists(st.integers(-10, 10), max_size=16), k=st.integers(1, 60),
           seed=st.integers(0, 2**32))
    def test_step_equals_holding_every_draw(self, data, exact, bounds, k, seed):
        # halved small integers put bounds below, at and above the exact value
        # U that covers both median ranks, often tied with exact values; the
        # permutation scatters the censored units through the sample, and
        # K * n takes both parities
        assume(bounds or len(set(exact)) > 1)
        w = np.r_[exact, bounds] / 2.0
        delta = np.r_[np.ones(len(exact), int), np.zeros(len(bounds), int)]
        order = np.array(data.draw(st.permutations(range(w.size))))
        sample = CensoredSample(w[order], delta[order])
        params = Laplace(data.draw(st.integers(-6, 6)) / 2.0,
                         data.draw(st.sampled_from([0.25, 1.0, 3.0])))
        got = mcem_step_laplace(sample, params, k, RandomStream(seed).substream(1))
        expected = laplace_step_holding_every_draw(sample, params, k,
                                                   RandomStream(seed).substream(1))
        assert (got.mu, got.sigma) == (expected.mu, expected.sigma)

    def test_bundled_data_location_is_pinned_by_order_statistics(self):
        # every conditional draw exceeds the censoring time, which exceeds
        # every observed value, so the augmented median is always the
        # midpoint of the 10th and 11th observed order statistics
        sample = example_laplace()
        y = np.sort(sample.uncensored)
        midpoint = 0.5 * (y[9] + y[10])
        assert midpoint == pytest.approx(49.766095, abs=1e-9)
        for seed, k in [(0, 10), (1, 100), (2, 5000)]:
            new = mcem_step_laplace(sample, Laplace(0.0, 1.0), k,
                                    RandomStream(seed).substream(1))
            assert new.mu == midpoint

    def test_step_matches_materialized_multiset(self):
        rng = np.random.default_rng(5)
        w = np.round(rng.normal(0, 2, size=8), 2)
        delta = np.array([1, 1, 0, 1, 0, 1, 1, 0])
        sample = CensoredSample(w, delta)
        params = Laplace(0.0, 2.0)
        k = 60
        new = mcem_step_laplace(sample, params, k, RandomStream(7).substream(1))
        blocks = replicate_draws(sample, params, k, RandomStream(7).substream(1),
                                 sample_truncated_laplace)
        pooled = np.concatenate([np.repeat(sample.uncensored, k)] + blocks)
        assert new.mu == float(np.median(pooled))
        scale = (math.fsum(np.abs(sample.uncensored - new.mu))
                 + math.fsum(np.abs(np.concatenate(blocks) - new.mu)) / k) / sample.n
        assert new.sigma == pytest.approx(scale, rel=1e-13)

    def test_complete_data_is_median_and_mean_absolute_deviation(self):
        w = np.array([1.0, 9.0, 3.0, 7.0, 5.0])
        s = CensoredSample(w, np.ones(5, dtype=int))
        new = mcem_step_laplace(s, Laplace(0.0, 1.0), 50, RandomStream(2).substream(1))
        assert new.mu == 5.0
        assert new.sigma == pytest.approx(np.abs(w - 5.0).mean(), rel=1e-15)


class TestRayleighStep:
    def test_complete_data_closed_form(self):
        w = np.array([1.0, 2.0, 2.5])
        s = CensoredSample(w, np.ones(3, dtype=int))
        expected = math.sqrt(float(w @ w) / 6.0)
        for start in (0.5, 40.0):
            new = mcem_step_rayleigh(s, Rayleigh(start), 25, RandomStream(1).substream(1))
            assert new.beta == pytest.approx(expected, rel=1e-15)

    def test_step_uses_average_of_squared_draws(self):
        sample = example_rayleigh()
        params = Rayleigh(6.0)
        k = 400
        new = mcem_step_rayleigh(sample, params, k, RandomStream(4).substream(1))
        blocks = replicate_draws(sample, params, k, RandomStream(4).substream(1),
                                 sample_truncated_rayleigh)
        y = sample.uncensored
        b2 = (float(y @ y) + sum(float((b * b).sum()) for b in blocks) / k) / (2 * sample.n)
        assert new.beta == pytest.approx(math.sqrt(b2), rel=1e-12)


class TestFitMcem:
    def test_trace_shape_and_convergence_flag(self):
        cfg = FitConfig(Family.RAYLEIGH, Algorithm.MCEM, start=Rayleigh(1.0),
                        k=200, max_iter=6, seed=11)
        trace = fit_mcem(example_rayleigh(), cfg)
        assert [row.s for row in trace.rows] == list(range(7))
        assert trace.converged
        assert trace.rows[0].params == Rayleigh(1.0)

    def test_bit_identical_reruns(self):
        cfg = FitConfig(Family.RAYLEIGH, Algorithm.MCEM, start=Rayleigh(1.0),
                        k=300, max_iter=5, seed=42)
        a = fit_mcem(example_rayleigh(), cfg)
        b = fit_mcem(example_rayleigh(), cfg)
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_the_draw_path(self):
        base = FitConfig(Family.RAYLEIGH, Algorithm.MCEM, start=Rayleigh(1.0),
                         k=300, max_iter=5, seed=42)
        other = FitConfig(Family.RAYLEIGH, Algorithm.MCEM, start=Rayleigh(1.0),
                          k=300, max_iter=5, seed=43)
        assert (fit_mcem(example_rayleigh(), base).to_csv()
                != fit_mcem(example_rayleigh(), other).to_csv())

    def test_iterations_use_fresh_draws(self):
        cfg = FitConfig(Family.RAYLEIGH, Algorithm.MCEM, start=Rayleigh(6.1341),
                        k=50, max_iter=4, seed=5)
        trace = fit_mcem(example_rayleigh(), cfg)
        betas = [row.params.beta for row in trace.rows[1:]]
        assert len(set(betas)) == len(betas)  # reused draws would repeat a value

    def test_complete_data_runs_its_budget_at_the_mle(self):
        rng = np.random.default_rng(12)
        w = rng.normal(0, 1, size=20)
        s = CensoredSample(w, np.ones(20, dtype=int))
        cfg = FitConfig(Family.NORMAL, Algorithm.MCEM, k=10, max_iter=15, seed=0)
        trace = fit_mcem(s, cfg)
        # complete data: every sweep repeats the MLE, and the budget is the
        # only stopping rule, so all 15 sweeps run
        assert trace.converged
        assert trace.iterations == 15
        mean = math.fsum(w) / 20
        mle = Normal(mean, math.fsum(w * w) / 20 - mean * mean)
        assert trace.rows[0].params.mu == pytest.approx(mle.mu, rel=1e-15, abs=1e-15)
        assert trace.rows[0].params.sigma2 == pytest.approx(mle.sigma2, rel=1e-15)
        assert all(row.params == mle for row in trace.rows[1:])

    def test_rejects_mismatched_config(self):
        with pytest.raises(ParameterError, match="^fit_mcem called with algorithm em$"):
            fit_mcem(example_normal(), FitConfig(Family.NORMAL, Algorithm.EM))

    def test_rejects_unfittable_sample(self):
        s = CensoredSample([1.0, 2.0], [0, 0])
        with pytest.raises(DataError, match="^all observations are censored: likelihood "
                           "unbounded; estimation refused$"):
            fit_mcem(s, FitConfig(Family.NORMAL, Algorithm.MCEM))


class TestStationaryNoise:
    def test_iterate_scatter_shrinks_with_k(self):
        # one sweep from the fixed point, repeated over seeds: the spread of
        # the location update should shrink like 1/sqrt(K)
        sample = example_normal()
        center = Normal(1.7422, 0.0791**2)
        spreads = []
        for k in (500, 5_000, 50_000):
            mus = [
                mcem_step_normal(sample, center, k, RandomStream(seed).substream(1)).mu
                for seed in range(16)
            ]
            spreads.append(np.std(mus))
        assert spreads[0] > spreads[1] > spreads[2]
        assert 1.5 < spreads[0] / spreads[1] < 7.0
        assert 1.5 < spreads[1] / spreads[2] < 7.0


# sha256 of FitTrace.to_csv() as produced by the unit-at-a-time E-step that
# the chunked one replaced; chunking must not move a single draw
GOLDEN_TRACES = {
    ("normal", "bundled", 2000, 0): "88717eb07040e6d2f66768d4970e8e7219d867449bb3250730b634dbe1c98832",
    ("laplace", "bundled", 2000, 0): "3d3073e2f4bb930ad500d3e3a8cc17c02de2d0e5f42f1b1a0207da4bf10306d7",
    ("rayleigh", "bundled", 2000, 0): "3cc5f5d945396bb68fc647c6909184f9cf12d74d9e13a49e3798c99a8f9fbb67",
    ("normal", "bundled", 2000, 5): "464a391c0d001d26ea1cd8fcc11de5c392250f9f66b06e8c0e71d53902327a32",
    ("laplace", "bundled", 2000, 5): "b090db8a885aa73582619d22e54ed6dead14d8fa85b45315886069ab2abd0357",
    ("rayleigh", "bundled", 2000, 5): "c63dc7cace0a0784a2bcc36759c8d2427fc846e332e8dc556e9ccccb6483f9c7",
    ("normal", "random", 37, 11): "5abb513c91b8b246f635742006dd25cf46469445617ce707b4bc413047de3cb6",
    ("laplace", "random", 37, 11): "458df540fde8765056840ea8e3b6583db9757af8fce1ebc6b73ca38ba7274d1b",
    # K > CHUNK_DRAWS: one unit per sampler call
    ("normal", "bundled", 20000, 0): "24f250fbd891b86e8990a57448dcebb1b6a55f672bf92a1b3ca533585c02eb36",
    ("laplace", "bundled", 20000, 0): "4c35bef51a3e37cd2ffb7ae4613fdefbefd5036e7798b33ef05f96205b9659ca",
    ("rayleigh", "bundled", 20000, 0): "7d293081d2fe7ec4686df844e3a3bcc01c6aad0daada014b4a16c91b900330a2",
    ("laplace", "random", 9000, 11): "f436bca1abaf38f13ecd3f18f7975148d467ecc26c3fdd2c360282fc6304b941",
    # small K: hundreds of units per sampler call
    ("normal", "random", 1, 11): "503b8502ad4fa3a3d0de54c68bb0bcacc7ebe8a2a127f59e8165f8882fc663e9",
    ("normal", "random", 4, 11): "ca2e0883ea64ca2668dd72a537875722d2ce1a1c1956c9d14cc586cc0f52495c",
    ("normal", "random", 10, 11): "d79c2041bafa07f4502b0e45c4d172f0d3a23e4a46dbacc7ba63f7520199abaf",
    ("laplace", "random", 1, 11): "ec49a02198d33803341c86cd48ab038537619eca6effc34b1516570dfddef77d",
    ("laplace", "random", 4, 11): "63f1e7ec2122a3a1b381a2e05221eea8ab26d4c286b11fa34357792d94afe19a",
    ("laplace", "random", 10, 11): "4b6ee3325681d9b1ff1a9bca8dbe78c026cd0bf712ab56de6998402f454696c7",
    ("rayleigh", "random", 1, 11): "ca9ed771d26fcaaaf5fabfac673ecafbe212f2f39b25677584f2764eb4399a1a",
    ("rayleigh", "random", 4, 11): "d7691825b85c00af5eaaefad8c35c60e8bcd75f823347b8e3289158c078dcc2f",
    ("rayleigh", "random", 10, 11): "7e0de9f38725c8d1c9187d9ae3df79928197dd49f0e31ebe2d38269f8af2cdea",
}
BUNDLED = {"normal": example_normal, "laplace": example_laplace, "rayleigh": example_rayleigh}
RANDOM = {"normal": random_censoring, "laplace": random_censoring, "rayleigh": positive_censoring}


def step_peak_rows(step, sample, params, k=50_000):
    """tracemalloc peak of one MCEM step after a warm-up, in rows of K * 8 bytes."""
    stream = RandomStream(1).substream(1)
    step(sample, params, k, stream)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        step(sample, params, k, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (k * 8)


class TestChunkedEStep:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TRACES), ids=lambda c: "-".join(map(str, c)))
    def test_traces_are_byte_identical_to_golden(self, case):
        family, data, k, seed = case
        sample = (BUNDLED if data == "bundled" else RANDOM)[family]()
        trace = fit_mcem(sample, FitConfig(Family(family), Algorithm.MCEM, k=k, max_iter=3,
                                           seed=seed))
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == GOLDEN_TRACES[case]

    @pytest.mark.parametrize("chunk", [1, 100, 10**6])
    def test_steps_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        sample = random_censoring()
        cases = [(mcem_step_normal, Normal(0.0, 1.0)), (mcem_step_laplace, Laplace(0.0, 1.0)),
                 (mcem_step_rayleigh, Rayleigh(1.0))]
        rayleigh = positive_censoring()
        stream = RandomStream(3).substream(1)
        expected = [step(rayleigh if step is mcem_step_rayleigh else sample, p, 37, stream)
                    for step, p in cases]
        monkeypatch.setattr(mcem, "CHUNK_DRAWS", chunk)
        got = [step(rayleigh if step is mcem_step_rayleigh else sample, p, 37, stream)
               for step, p in cases]
        assert got == expected

    def test_rayleigh_step_holds_one_chunk_of_draws(self):
        # 400 censored units x K=10_000 = 4e6 draws, 32 MB if every draw were held
        sample = CensoredSample(np.r_[np.linspace(0.5, 3.0, 100), np.full(400, 3.0)],
                                np.r_[np.ones(100, int), np.zeros(400, int)])
        tracemalloc.start()
        try:
            mcem_step_rayleigh(sample, Rayleigh(1.5), 10_000, RandomStream(1).substream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_laplace_step_holds_no_draw_above_the_median(self):
        # Type-II: 400 exact values and 100 units censored at the largest, so
        # every bound lies above the exact value that covers both median ranks;
        # 100 units x K=50_000 = 5e6 draws, 40 MB if every draw were held
        sample = from_type2(np.linspace(-2.0, 2.0, 400), 500)
        tracemalloc.start()
        try:
            mcem_step_laplace(sample, Laplace(0.0, 1.0), 50_000, RandomStream(1).substream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_normal_step_holds_few_rows_of_draws(self):
        # the bundled sample's 3 censored units at K = 50_000: one unit's row
        # of draws is K * 8 bytes; a sweep holds the uniforms and the draws
        assert step_peak_rows(mcem_step_normal, example_normal(),
                              Normal.from_reported(1.7, 0.06)) < 2.5

    def test_laplace_step_holds_few_rows_of_draws(self):
        # Type-II: both censored units lie above the median, so none is held
        sample = example_laplace()
        assert step_peak_rows(mcem_step_laplace, sample,
                              default_start(sample, Family.LAPLACE)) < 2.5

    def test_rayleigh_step_holds_few_rows_of_draws(self):
        sample = example_rayleigh()
        assert step_peak_rows(mcem_step_rayleigh, sample,
                              default_start(sample, Family.RAYLEIGH)) < 2.5
