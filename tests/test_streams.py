"""Deterministic substream generator: reproducibility and range contracts."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cemfit import streams
from cemfit.exceptions import ParameterError
from cemfit.streams import RandomStream, _derive_key


class TestDeterminism:
    def test_same_seed_and_path_give_identical_sequences(self):
        a = RandomStream(123).substream(4, 7).uniforms(1000)
        b = RandomStream(123).substream(4, 7).uniforms(1000)
        assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(0).uniforms(100)
        b = RandomStream(1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_different_substreams_differ(self):
        root = RandomStream(7)
        a = root.substream(1).uniforms(100)
        b = root.substream(2).uniforms(100)
        c = root.substream(1, 1).uniforms(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)

    def test_substream_output_independent_of_creation_order(self):
        # addressing is by key only: deriving other substreams first, or
        # drawing from them, must not disturb a given substream's output
        root = RandomStream(42)
        direct = root.substream(5).uniforms(64)

        other_root = RandomStream(42)
        other_root.substream(1).uniforms(999)
        other_root.substream(9, 3).uniforms(17)
        assert_array_equal(other_root.substream(5).uniforms(64), direct)

    def test_nested_derivation_equals_flat_derivation(self):
        root = RandomStream(3)
        nested = root.substream(2).substream(6).uniforms(32)
        flat = root.substream(2, 6).uniforms(32)
        assert_array_equal(nested, flat)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64)])
    def test_root_seed_outside_64_bits_is_refused(self, seed):
        # reduced modulo 2**64, 2**64 would draw RandomStream(0)'s uniforms
        # and -1 those of RandomStream(2**64 - 1)
        with pytest.raises(ParameterError, match=f"unsigned 64-bit integer, got {seed}$"):
            RandomStream(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_root_seed_at_the_edges_of_64_bits_is_taken(self, seed):
        assert RandomStream(seed).seed == int(seed)

    def test_non_integer_seed_is_a_type_error(self):
        for seed in (1.0, "1", None):
            with pytest.raises(TypeError, match="seed must be an integer"):
                RandomStream(seed)

    def test_substream_components_keep_their_reduction_modulo_2_64(self):
        root = RandomStream(0)
        assert_array_equal(root.substream(-1).uniforms(8), root.substream(2**64 - 1).uniforms(8))
        assert_array_equal(root.substream(2**64).uniforms(8), root.substream(0).uniforms(8))

    def test_path_is_recorded(self):
        stream = RandomStream(11).substream(4).substream(2, 9)
        assert stream.path == (4, 2, 9)
        assert stream.seed == 11


class TestRangeContracts:
    def test_million_draws_strictly_inside_open_interval(self):
        u = RandomStream(1).uniforms(1_000_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_extreme_representable_values_are_bounded(self):
        # mapping grain: every value lies in [2^-53, 1 - 2^-53]
        u = RandomStream(99).uniforms(1_000_000)
        assert u.min() >= 2.0**-53
        assert u.max() <= 1.0 - 2.0**-53

    def test_million_draws_mean_near_half(self):
        # CLT bound: 4 * sqrt(1/12) / 1000 ~ 0.0012, rounded up to 0.002
        u = RandomStream(1).uniforms(1_000_000)
        assert abs(u.mean() - 0.5) < 0.002

    def test_uniform_histogram_is_flat(self):
        # chi-square on 100 bins at n=1e6: 4-sigma band is 100 +- 4*sqrt(200)
        u = RandomStream(5).uniforms(1_000_000)
        counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
        chi2 = np.sum((counts - 10_000.0) ** 2) / 10_000.0
        assert 100 - 4 * np.sqrt(200) < chi2 < 100 + 4 * np.sqrt(200)

    def test_draw_dtype_and_shape(self):
        u = RandomStream(0).uniforms(10)
        assert u.dtype == np.float64
        assert u.shape == (10,)


class TestWordMapping:
    """``uniforms`` converts the Philox words in place; the values must equal
    the reference mapping ((w >> 12) + 0.5) * 2**-52 bit for bit."""

    @pytest.mark.parametrize("seed, path, n", [(0, (), 1), (123, (4, 7), 1000),
                                               (2**63 + 9, (1, 2**40), 50_000)])
    def test_equals_the_reference_mapping_bit_for_bit(self, seed, path, n):
        stream = RandomStream(seed).substream(*path) if path else RandomStream(seed)
        words = np.random.Philox(key=np.array(_derive_key(seed, path), np.uint64)).random_raw(n)
        expected = ((words >> np.uint64(12)) + 0.5) * 2.0**-52
        assert_array_equal(stream.uniforms(n).view(np.uint64), expected.view(np.uint64))

    def test_extreme_words_map_to_the_grain_endpoints(self):
        class Words:
            def random_raw(self, n):
                return np.array([0, 2**64 - 1, 2**12 - 1, 2**12, 2**63], np.uint64)[:n]

        stream = RandomStream(1)
        stream._bitgen = Words()
        u = stream.uniforms(5)
        assert u.dtype == np.float64
        assert u.tolist() == [2.0**-53, 1.0 - 2.0**-53, 2.0**-53, 3 * 2.0**-53, 0.5 + 2.0**-53]

    def test_empty_draw(self):
        u = RandomStream(3).uniforms(0)
        assert u.shape == (0,) and u.dtype == np.float64


class TestUnitBlocks:
    UNITS = [0, 1, 2**32, 2**63 + 5]

    @pytest.mark.parametrize("stream", [RandomStream(8), RandomStream(8).substream(3, 2**40)],
                             ids=["root", "nested"])
    def test_rows_equal_unit_substreams(self, stream):
        block = stream.unit_uniforms(self.UNITS, 37)
        assert block.shape == (4, 37)
        for row, unit in zip(block, self.UNITS):
            assert_array_equal(row, stream.substream(unit).uniforms(37))

    def test_integer_array_and_single_row(self):
        stream = RandomStream(2).substream(9)
        block = stream.unit_uniforms(np.array([5, -1, 70_000]), 4)
        for row, unit in zip(block, (5, -1, 70_000)):
            assert_array_equal(row, stream.substream(unit).uniforms(4))
        assert_array_equal(stream.unit_uniforms(np.array([5]), 10_000)[0],
                           stream.substream(5).uniforms(10_000))
        assert stream.unit_uniforms([], 3).shape == (0, 3)

    def test_block_leaves_the_parent_stream_untouched(self):
        stream = RandomStream(4)
        stream.unit_uniforms([1, 2], 8)
        assert_array_equal(stream.uniforms(8), RandomStream(4).uniforms(8))

    def test_row_generator_is_reused_without_carrying_state(self):
        # one row generator serves every call on a stream; a block or row handed
        # out earlier must not change when later calls draw into it
        stream = RandomStream(6).substream(2)
        one = stream.unit_uniforms([3], 9000)
        kept = one.copy()
        block = stream.unit_uniforms([4, 3], 5)
        again = stream.unit_uniforms(np.array([3]), 9000)
        assert_array_equal(one, kept)
        assert_array_equal(again, kept)
        assert_array_equal(block[1], stream.substream(3).uniforms(5))
        assert_array_equal(block[0], stream.substream(4).uniforms(5))

    def test_rejects_non_integer_units(self):
        with pytest.raises(TypeError):
            RandomStream(1).unit_uniforms([1.5], 3)
        with pytest.raises(TypeError):
            RandomStream(1).unit_uniforms(np.array([[1]]), 3)


class TestVectorPhilox:
    """``_philox_words`` runs Philox4x64-10 over many keys at once; every word
    must equal NumPy's Philox keyed with the same key."""

    KEYS = np.vstack([
        np.random.default_rng(13).integers(0, 2**64, (40, 2), dtype=np.uint64, endpoint=False),
        np.array([[0, 0], [2**64 - 1, 2**64 - 1], [0, 2**64 - 1], [2**64 - 1, 0]], np.uint64),
    ])

    @pytest.mark.parametrize("k", [*range(1, 10), streams._VECTOR_K_MAX - 1,
                                   streams._VECTOR_K_MAX])
    def test_words_equal_numpy_philox(self, k):
        words = streams._philox_words(self.KEYS, k)
        assert words.shape == (len(self.KEYS), k) and words.flags.c_contiguous
        for row, key in zip(words, self.KEYS):
            assert_array_equal(row, np.random.Philox(key=key).random_raw(k))

    @pytest.mark.parametrize("k", [1, 4, 10, streams._VECTOR_K_MAX - 1, streams._VECTOR_K_MAX])
    @pytest.mark.parametrize("units", [[2**63 + 3], [5, -1, 70_000, 2**63 + 3]],
                             ids=["one-unit", "several-units"])
    def test_rows_equal_substreams_on_both_sides_of_the_crossover(self, monkeypatch, k, units):
        passes, words = [], streams._philox_words

        def spy(keys, k):
            passes.append(len(keys))
            return words(keys, k)

        monkeypatch.setattr(streams, "_philox_words", spy)
        stream = RandomStream(2).substream(9)
        block = stream.unit_uniforms(units, k)
        vectorized = k < streams._VECTOR_K_MAX and len(units) > 1
        assert passes == ([len(units)] if vectorized else [])
        assert block.shape == (len(units), k)
        for row, unit in zip(block, units):
            assert_array_equal(row, stream.substream(unit).uniforms(k))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_k_is_treated_alike_on_every_path(self, n):
        stream = RandomStream(5)
        for k in (0, streams._VECTOR_K_MAX):
            assert stream.unit_uniforms(np.arange(n), k).shape == (n, k)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            stream.unit_uniforms(np.arange(n), -1)
