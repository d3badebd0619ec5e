"""Deterministic substream generator: reproducibility and range contracts."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cemfit.streams import RandomStream


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

    def test_next_uniform_matches_vector_draws(self):
        stream = RandomStream(17).substream(3)
        singles = [RandomStream(17).substream(3).next_uniform() for _ in range(1)]
        vector = RandomStream(17).substream(3).uniforms(1)
        assert singles[0] == vector[0]

    def test_draw_dtype_and_shape(self):
        u = RandomStream(0).uniforms(10)
        assert u.dtype == np.float64
        assert u.shape == (10,)


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

    def test_rejects_non_integer_units(self):
        with pytest.raises(TypeError):
            RandomStream(1).unit_uniforms([1.5], 3)
        with pytest.raises(TypeError):
            RandomStream(1).unit_uniforms(np.array([[1]]), 3)
