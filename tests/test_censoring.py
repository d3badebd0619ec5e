"""Censored-sample container, likelihood, validation, and CSV round trips."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from cemfit.censoring import (
    CensoredSample,
    ensure_fittable,
    from_type2,
    observed_loglik,
    read_censored_csv,
    validate,
    write_censored_csv,
)
from cemfit.datasets import example_laplace, example_normal, example_rayleigh
from cemfit.distributions import Family, Laplace, Normal, Rayleigh
from cemfit.exceptions import DataError

import reference_values as rv


class TestConstruction:
    def test_basic_fields(self):
        s = CensoredSample([1.0, 2.0, 3.0], [1, 0, 1])
        assert s.n == 3 and s.m == 2
        assert_array_equal(s.uncensored, [1.0, 3.0])
        assert_array_equal(s.censor_times, [2.0])

    def test_arrays_are_read_only(self):
        s = CensoredSample([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError):
            s.w[0] = 9.0
        with pytest.raises(ValueError):
            s.delta[0] = 0

    def test_split_is_computed_once_and_read_only(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=200)
        delta = rng.integers(0, 2, 200)
        delta[5] = 2  # out of range; validate reports it, the split skips it
        s = CensoredSample(w, delta)
        assert_array_equal(s.uncensored, w[delta == 1])
        assert_array_equal(s.censor_times, w[delta == 0])
        assert_array_equal(s.censored_indices, np.nonzero(delta == 0)[0])
        assert s.m == np.count_nonzero(delta == 1)
        for name in ("uncensored", "censor_times", "censored_indices"):
            a = getattr(s, name)
            assert a is getattr(s, name)  # computed once, not on each access
            with pytest.raises(ValueError):
                a[0] = 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            CensoredSample([1.0, 2.0], [1])
        with pytest.raises(DataError):
            CensoredSample([[1.0], [2.0]], [1, 0])

    def test_non_numeric_delta_rejected(self):
        with pytest.raises(DataError):
            CensoredSample([1.0, 2.0], ["1", "0"])
        with pytest.raises(DataError):
            CensoredSample([1.0, 2.0], np.array(["1", "0"], dtype=object))

    def test_fractional_delta_rejected(self):
        with pytest.raises(DataError):
            CensoredSample([1.0], [0.5])


class TestFromType2:
    def test_seven_of_ten(self):
        s = from_type2(rv.NORMAL_OBSERVED, rv.NORMAL_TOTAL_N)
        assert s.n == 10 and s.m == 7
        assert_array_equal(s.w[7:], [1.778, 1.778, 1.778])
        assert_array_equal(s.delta[7:], [0, 0, 0])
        assert_array_equal(s.uncensored, rv.NORMAL_OBSERVED)

    def test_single_value_complete(self):
        s = from_type2([5.0], 1)
        assert s.n == 1 and s.m == 1
        assert_array_equal(s.w, [5.0])
        assert_array_equal(s.delta, [1])

    def test_eighteen_of_twenty(self):
        s = from_type2(rv.LAPLACE_OBSERVED, rv.LAPLACE_TOTAL_N)
        assert s.n == 20 and s.m == 18
        assert_array_equal(s.w[18:], [54.94154, 54.94154])
        assert_array_equal(s.delta[18:], [0, 0])

    def test_count_overflow_rejected(self):
        with pytest.raises(DataError):
            from_type2([1.0, 2.0, 3.0], 2)

    @pytest.mark.parametrize("total_n", [3.0, 2.5, "3", None], ids=repr)
    def test_non_integer_total_rejected(self, total_n):
        with pytest.raises(DataError, match="total_n must be an integer"):
            from_type2([1.0, 2.0], total_n)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            from_type2([], 5)

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            from_type2([2.0, 1.0], 4)

    @pytest.mark.parametrize("values", [[1.0, math.nan, 0.5], [1.0, math.inf]], ids=str)
    def test_nonfinite_rejected(self, values):
        # a nan defeats the ordering check, so it is refused on its own
        with pytest.raises(DataError, match="finite"):
            from_type2(values, 4)


class TestObservedLoglik:
    def test_complete_normal_equals_sum_of_logpdfs(self):
        rng = np.random.default_rng(7)
        w = rng.normal(3.0, 2.0, size=40)
        s = CensoredSample(w, np.ones(40, dtype=int))
        p = Normal(2.5, 3.2)
        assert observed_loglik(s, p) == pytest.approx(
            stats.norm(2.5, math.sqrt(3.2)).logpdf(w).sum(), rel=1e-13)

    def test_censored_terms_use_log_survival(self):
        s = CensoredSample([1.0, 2.0, 4.0], [1, 0, 0])
        p = Laplace(0.0, 1.5)
        ref = stats.laplace(0.0, 1.5)
        expected = ref.logpdf(1.0) + ref.logsf(2.0) + ref.logsf(4.0)
        assert observed_loglik(s, p) == pytest.approx(expected, rel=1e-13)

    def test_rayleigh_maximizer_on_bundled_data(self):
        s = example_rayleigh()
        best = observed_loglik(s, Rayleigh(6.1341))
        assert observed_loglik(s, Rayleigh(5.9)) < best
        assert observed_loglik(s, Rayleigh(6.4)) < best

    def test_corrected_scale_beats_original_on_bundled_normal(self):
        s = example_normal()
        assert (observed_loglik(s, Normal(1.742, 0.079**2))
                > observed_loglik(s, Normal(1.742, 0.072**2)))

    def test_out_of_support_gives_minus_inf(self):
        s = CensoredSample([-1.0, 2.0], [1, 1])
        assert observed_loglik(s, Rayleigh(2.0)) == -math.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        w = rng.normal(0.0, 1.0, size=30)
        delta = (rng.uniform(size=30) < 0.7).astype(int)
        delta[0] = 1  # keep at least one observed
        s = CensoredSample(w, delta)
        p = Normal(0.3, 1.4)
        base = observed_loglik(s, p)
        for _ in range(5):
            perm = rng.permutation(30)
            shuffled = CensoredSample(w[perm], delta[perm])
            assert abs(observed_loglik(shuffled, p) - base) <= 1e-12 * abs(base)

    @pytest.mark.parametrize("params", [Normal(0.4, 1.3), Laplace(0.2, 0.9), Rayleigh(1.1)])
    def test_sum_is_exact_whatever_the_order(self, params):
        # n = 5000 is above exact_sum's fsum threshold; a plain np.sum of the
        # terms changes in the last bits when the units are shuffled
        rng = np.random.default_rng(3)
        w = rng.rayleigh(1.0, 5000) if params.family is Family.RAYLEIGH else rng.normal(0.0, 1.0, 5000)
        delta = (rng.uniform(size=5000) < 0.7).astype(int)
        s = CensoredSample(w, delta)
        base = observed_loglik(s, params)
        for _ in range(20):
            perm = rng.permutation(5000)
            assert observed_loglik(CensoredSample(w[perm], delta[perm]), params) == base

    def test_type2_reduction_matches_joint_density(self):
        # the two likelihoods differ only by an additive combinatorial
        # constant, so differences across parameter points must agree
        values, total_n = rv.NORMAL_OBSERVED, rv.NORMAL_TOTAL_N
        s = from_type2(values, total_n)
        r = len(values)

        def type2_joint_logpdf(p):
            const = (math.lgamma(total_n + 1) - math.lgamma(total_n - r + 1))
            dens = sum(float(stats.norm(p.mu, p.sigma).logpdf(v)) for v in values)
            tail = (total_n - r) * float(p.log_survival(values[-1]))
            return const + dens + tail

        p1, p2 = Normal(1.7, 0.004), Normal(1.7422, 0.0791**2)
        lhs = observed_loglik(s, p1) - observed_loglik(s, p2)
        rhs = type2_joint_logpdf(p1) - type2_joint_logpdf(p2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestValidate:
    def test_clean_sample_has_no_violations(self):
        assert validate(example_normal(), Family.NORMAL) == []

    def test_nonpositive_rayleigh_data_reported(self):
        s = CensoredSample([-1.0, 2.0], [1, 1])
        problems = validate(s, Family.RAYLEIGH)
        assert any("nonpositive observation" in p for p in problems)

    def test_all_censored_reported(self):
        s = CensoredSample([1.0, 2.0], [0, 0])
        problems = validate(s)
        assert any("likelihood unbounded; estimation refused" in p for p in problems)

    def test_nonfinite_values_reported(self):
        s = CensoredSample([np.nan, 2.0], [1, 1])
        assert any("finite" in p for p in validate(s))

    def test_ensure_fittable_raises_with_all_violations(self):
        s = CensoredSample([-3.0, 2.0], [0, 0])
        with pytest.raises(DataError) as err:
            ensure_fittable(s, Family.RAYLEIGH)
        assert "estimation refused" in str(err.value)
        assert "nonpositive observation" in str(err.value)

    def test_ensure_fittable_passes_clean_sample(self):
        ensure_fittable(example_laplace(), Family.LAPLACE)


class TestCsvRoundTrip:
    def test_write_then_read_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, size=25) * math.pi  # exercise full precision
        delta = (rng.uniform(size=25) < 0.8).astype(int)
        path = tmp_path / "sample.csv"
        write_censored_csv(path, CensoredSample(w, delta))
        back = read_censored_csv(path)
        assert_array_equal(back.w, w)
        assert_array_equal(back.delta, delta)

    def test_file_format(self, tmp_path):
        path = tmp_path / "sample.csv"
        write_censored_csv(path, CensoredSample([1.5, 2.0], [1, 0]))
        text = path.read_text()
        assert text == "w,delta\n1.5,1\n2.0,0\n"

    def test_bundled_datasets_parse(self):
        for sample, n, m in [(example_normal(), 10, 7),
                             (example_laplace(), 20, 18),
                             (example_rayleigh(), 20, 15)]:
            assert (sample.n, sample.m) == (n, m)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,1\n2.0,0\n")
        with pytest.raises(DataError):
            read_censored_csv(path)

    def test_bad_delta_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,delta\n1.0,1\n2.0,7\n")
        with pytest.raises(DataError) as err:
            read_censored_csv(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("one, zero", [("1.0", "0.0"), ("1e0", "-0.0"), ("1.", "0e5")])
    def test_delta_written_as_a_float_is_read(self, tmp_path, one, zero):
        # a float column exports its flags this way (pandas to_csv)
        path = tmp_path / "floats.csv"
        path.write_text(f"w,delta\n1.0,{one}\n2.0,{zero}\n")
        back = read_censored_csv(path)
        assert_array_equal(back.w, [1.0, 2.0])
        assert_array_equal(back.delta, [1, 0])
        assert back.delta.dtype == np.int64

    @pytest.mark.parametrize("cell", ["0.5", "7.0", "2e0", "-1.0", "nan", "inf"])
    def test_delta_of_another_number_is_refused_by_value(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"w,delta\n1.0,1\n2.0,{cell}\n")
        with pytest.raises(DataError, match=f"line 3: delta must be 0 or 1, got {float(cell)}$"):
            read_censored_csv(path)

    @pytest.mark.parametrize("cell", ["yes", "", "1,0", "0x1"])
    def test_delta_that_is_not_a_number_cannot_be_parsed(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"w,delta\n1.0,1\n2.0,\"{cell}\"\n")
        with pytest.raises(DataError, match="line 3: cannot parse delta value"):
            read_censored_csv(path)

    def test_non_numeric_value_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,delta\nabc,1\n")
        with pytest.raises(DataError) as err:
            read_censored_csv(path)
        assert "line 2" in str(err.value)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("w,delta\n1.5,1\n\n   \n2.0,0\n\n")
        back = read_censored_csv(path)
        assert_array_equal(back.w, [1.5, 2.0])
        assert_array_equal(back.delta, [1, 0])
        path.write_text("w,delta\n1.5,1\n\n2.0,7\n")
        with pytest.raises(DataError, match="line 4: delta must be 0 or 1"):
            read_censored_csv(path)

    @pytest.mark.parametrize("head, line, offset", [
        (b"w,delta\n1.5,1\n2.5", 3, 17),
        # a byte order mark, and the bad byte past the first 8 KiB that a read decodes
        (b"\xef\xbb\xbfw,delta\n" + b"1.5,1\n" * 2000 + b"2.5", 2002, 12014),
    ], ids=["short", "long-with-bom"])
    def test_byte_that_is_not_utf8_reported_by_line_and_offset(self, tmp_path, head, line,
                                                                offset):
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"\xe9,0\n")
        with pytest.raises(DataError, match=f"latin1.csv, line {line}: byte 0xe9 at offset "
                                            f"{offset} is not UTF-8$"):
            read_censored_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("w,delta\n")
        with pytest.raises(DataError) as err:
            read_censored_csv(path)
        assert "empty sample" in str(err.value)
