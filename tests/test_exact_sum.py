"""``distributions.exact_sum`` returns ``math.fsum(a.tolist())`` bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemfit.distributions
from cemfit.distributions import _EXACT_MIN_TERMS, exact_sum

TINY = 5e-324            # smallest subnormal


def fsum_outcome(a):
    try:
        return repr(math.fsum(a.tolist()))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def exact_outcome(a):
    try:
        return repr(exact_sum(a))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def bulk(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n terms of one make-up, drawn from rng."""
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "wide":          # magnitudes 1e-300 .. 1e300
        return sign * 10.0 ** rng.uniform(-300.0, 300.0, n)
    if kind == "subnormal":     # subnormals with a tenth of small normals among them
        x = sign * TINY * rng.integers(1, 2 ** 52, n).astype(float)
        return np.where(rng.uniform(size=n) < 0.1, sign * 10.0 ** rng.uniform(-300.0, -290.0, n), x)
    if kind == "cancel":        # pairs x, -x plus a little noise, shuffled
        pairs = (n - n // 50) // 2
        half = rng.normal(0.0, 1e3, pairs) * 10.0 ** rng.uniform(-20, 20, pairs)
        return rng.permutation(np.concatenate([half, -half, rng.normal(0.0, 1e-12, n - 2 * pairs)]))
    if kind == "loglik":        # log-density terms of a normal sample
        return -0.5 * rng.normal(0.0, 1.5, n) ** 2 - rng.uniform(0.0, 3.0, n)
    return sign * rng.uniform(0.0, 1e308, n)   # "huge": near the overflow edge


KINDS = ["wide", "subnormal", "cancel", "loglik", "huge"]


class TestEqualsFsum:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(KINDS),
           extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_random_arrays(self, n, seed, kind, extra):
        rng = np.random.default_rng(seed)
        a = rng.permutation(np.concatenate([bulk(kind, n, rng), np.array(extra, dtype=float)]))
        assert exact_outcome(a) == fsum_outcome(a)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [_EXACT_MIN_TERMS - 1, _EXACT_MIN_TERMS, _EXACT_MIN_TERMS + 1,
                                   4999])
    def test_both_sides_of_the_threshold(self, kind, n):
        a = bulk(kind, n, np.random.default_rng(n))
        assert exact_outcome(a) == fsum_outcome(a)

    def test_zeros_and_signed_zeros(self):
        for a in (np.zeros(2000), -np.zeros(2000), np.array([1.0, -1.0] * 1000), np.array([])):
            assert repr(exact_sum(a)) == repr(math.fsum(a.tolist()))

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        a = bulk("wide", 3000, rng)
        assert repr(exact_sum(a)) == repr(exact_sum(a[::-1])) == repr(exact_sum(rng.permutation(a)))


class TestSpecialValues:
    """Above the threshold too, non-finite terms behave as in ``math.fsum``."""

    def base(self):
        return np.random.default_rng(5).normal(0.0, 1.0, 1500)

    def test_one_minus_inf_gives_minus_inf(self):
        a = self.base()
        a[700] = -math.inf
        assert exact_sum(a) == -math.inf

    def test_one_nan_gives_nan(self):
        a = self.base()
        a[3] = math.nan
        assert math.isnan(exact_sum(a))

    def test_inf_and_minus_inf_raise_value_error(self):
        a = self.base()
        a[10], a[1200] = math.inf, -math.inf
        with pytest.raises(ValueError):
            exact_sum(a)

    def test_overflowing_total_raises_overflow_error(self):
        with pytest.raises(OverflowError):
            exact_sum(np.full(1500, 1e308))


@pytest.fixture
def certified(monkeypatch):
    """The outcomes of ``_certified_total`` in the calls that follow: a total
    where the bound proved the rounding after one round, None where the
    rounds went on."""
    outcomes = []
    real = cemfit.distributions._certified_total

    def spy(t, r, e):
        outcomes.append(real(t, r, e))
        return outcomes[-1]

    monkeypatch.setattr(cemfit.distributions, "_certified_total", spy)
    return outcomes


class TestCertificate:
    """Where one extraction round ends the sum and where the rounds go on, the
    result is ``math.fsum``'s bit for bit."""

    def test_half_ulp_tie_rounds_to_even(self, certified):
        # 1 + 2048 * 2**-64 = 1 + 2**-53 lies halfway between 1 and its successor
        a = np.array([1.0] + [2.0 ** -64] * 2048)
        assert repr(exact_sum(a)) == repr(math.fsum(a.tolist())) == "1.0"
        assert certified == [None]

    @pytest.mark.parametrize("offset", range(-6, 11))
    def test_power_of_two_total(self, certified, offset):
        # 2 + offset * 2**-55: the gap below 2 is 8 * 2**-55 and the gap above
        # 16 * 2**-55, so offsets -4 and 8 are ties, and 4 to 7 are within half
        # the upper gap but not half the lower one: the bound must not prove those
        a = np.array([2.0] + [offset * 2.0 ** -66] * 2048)
        assert repr(exact_sum(a)) == repr(math.fsum(a.tolist()))
        assert len(certified) == 1
        if offset in (-4, 4, 5, 6, 7, 8):
            assert certified == [None]

    @pytest.mark.parametrize("tail", [[], [1e-300], [3e-310, 1e-310], [1e-20] * 10])
    def test_cancellation_to_zero_and_tiny_totals(self, certified, tail):
        x = np.random.default_rng(1).normal(0.0, 1e3, 1000)
        a = np.random.default_rng(2).permutation(np.concatenate([x, -x, tail]))
        assert repr(exact_sum(a)) == repr(math.fsum(a.tolist()))
        assert certified == [None]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sums_near_the_overflow_edge(self, certified, sign):
        # 2046 terms below 2**1012: 2**e = 2**1023, and the total is about 8.6e307
        a = sign * np.random.default_rng(3).uniform(4.0e304, 4.38e304, 2046)
        total = exact_sum(a)
        assert repr(total) == repr(math.fsum(a.tolist()))
        assert abs(total) > 8.5e307 and certified == [total]

    def test_loglik_terms_end_after_one_round(self, certified):
        a = bulk("loglik", 20_000, np.random.default_rng(11))
        total = exact_sum(a)
        assert repr(total) == repr(math.fsum(a.tolist()))
        assert certified == [total]
