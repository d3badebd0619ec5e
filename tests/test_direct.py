"""Direct likelihood maximization against exact and tabulated oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemfit.censoring import CensoredSample, observed_loglik, write_censored_csv
from cemfit.cli import main
from cemfit.datasets import dataset_path, example_laplace, example_normal, example_rayleigh
import cemfit.direct
from cemfit.direct import fit_direct, loglik_gradient_norm, rayleigh_mle_closed_form
from cemfit.distributions import Family, Laplace, Normal, Rayleigh
from cemfit.em import fit_em
from cemfit.exceptions import DataError, ParameterError
from cemfit.fitting import Algorithm, FitConfig, default_start

import reference_values as rv


def direct_config(family):
    return FitConfig(family, Algorithm.DIRECT)


def laplace_mle_single_censor_time(sample):
    """Exact Laplace MLE when all censoring happens at one time above the data.

    With every censor time above every exact observation, the location
    profile is piecewise linear with slope (m - 2j + c) / sigma between the
    j-th and (j+1)-th order statistics, where c counts censored units.  The
    maximizing location is the midpoint of the zero-slope segment when m + c
    is even and the ((m + c + 1)/2)-th order statistic when odd; the scale
    solves the score exactly at that location.
    """
    y = np.sort(sample.uncensored)
    bounds = sample.censor_times
    m, c = sample.m, sample.n - sample.m
    assert bounds.min() >= y.max()
    if (m + c) % 2 == 0:
        j = (m + c) // 2
        mu = 0.5 * (y[j - 1] + y[j])
    else:
        mu = float(y[(m + c + 1) // 2 - 1])
    sigma = (math.fsum(np.abs(y - mu)) + math.fsum(bounds - mu)) / m
    return Laplace(mu, sigma)


def perturbed_logliks(sample, params, rel=0.01):
    """Log-likelihood at every +/- rel coordinate-wise perturbation."""
    base = list(params.reported())
    out = {}
    deltas = [(1,), (-1,)] if len(base) == 1 else [
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
    ]
    for signs in deltas:
        vec = [v + s * rel * abs(v) for v, s in zip(base, signs)]
        if isinstance(params, Normal):
            cand = Normal(vec[0], vec[1] * vec[1])
        elif isinstance(params, Laplace):
            cand = Laplace(vec[0], vec[1])
        else:
            cand = Rayleigh(vec[0])
        out[signs] = observed_loglik(sample, cand)
    return out


class TestNormalDirect:
    def test_reference_data_matches_tabulated_mle(self):
        report = fit_direct(example_normal(), direct_config(Family.NORMAL))
        assert report.converged
        mu, sigma = report.final.reported()
        assert mu == pytest.approx(rv.NORMAL_MLE[0], abs=5e-4)
        assert sigma == pytest.approx(rv.NORMAL_MLE[1], abs=5e-4)
        assert report.gradient_norm <= 1e-5

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6], ids=str)
    def test_agrees_with_em_fixed_point(self, scale):
        # at its default tol EM stops as close to the maximum in any units
        base = example_normal()
        sample = CensoredSample(base.w * scale, base.delta)
        em = fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM))
        assert em.converged
        direct = fit_direct(sample, direct_config(Family.NORMAL))
        for a, b in zip(em.final.reported(), direct.final.reported()):
            assert a == pytest.approx(b, abs=1e-4 * scale)

    def test_report_is_internally_consistent(self):
        sample = example_normal()
        report = fit_direct(sample, direct_config(Family.NORMAL))
        assert report.loglik == observed_loglik(sample, report.final)
        assert report.gradient_norm == loglik_gradient_norm(sample, report.final)
        assert report.iterations >= 1

    def test_argmax_beats_nearby_points(self):
        sample = example_normal()
        report = fit_direct(sample, direct_config(Family.NORMAL))
        for value in perturbed_logliks(sample, report.final).values():
            assert value < report.loglik

    def test_matches_em_on_random_censored_samples(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            n = int(rng.integers(10, 60))
            x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 3.0), size=n)
            t = np.quantile(x, rng.uniform(0.4, 0.9))
            w = np.minimum(x, t)
            delta = (x <= t).astype(int)
            if delta.sum() < 3:
                continue
            sample = CensoredSample(w, delta)
            em = fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM,
                                          tol=1e-12, max_iter=5000))
            direct = fit_direct(sample, direct_config(Family.NORMAL))
            for a, b in zip(em.final.reported(), direct.final.reported()):
                assert a == pytest.approx(b, abs=5e-4)


class TestLaplaceDirect:
    def test_reference_data_matches_exact_algebra(self):
        sample = example_laplace()
        oracle = laplace_mle_single_censor_time(sample)
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.final.mu == oracle.mu
        assert report.final.sigma == pytest.approx(oracle.sigma, rel=1e-6)

    def test_reference_data_matches_tabulated_mle(self):
        report = fit_direct(example_laplace(), direct_config(Family.LAPLACE))
        mu, sigma = report.final.reported()
        assert mu == pytest.approx(rv.LAPLACE_MLE[0], abs=1e-3)
        assert sigma == pytest.approx(rv.LAPLACE_MLE[1], abs=1e-3)

    def test_location_sits_mid_flat_segment(self):
        # the location profile is flat between the 10th and 11th order
        # statistics; the reported location is the conventional midpoint
        sample = example_laplace()
        y = np.sort(sample.uncensored)
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.final.mu == 0.5 * (y[9] + y[10])

    @pytest.mark.parametrize("start", [Laplace(-40.0, 1e-3), Laplace(60.0, 1e3)], ids=str)
    def test_the_start_is_not_read(self, start):
        sample = example_laplace()
        report = fit_direct(sample, FitConfig(Family.LAPLACE, Algorithm.DIRECT, start=start))
        assert report == fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.iterations == 6  # profile evaluations

    def test_argmax_is_a_maximizer_up_to_the_flat_ridge(self):
        sample = example_laplace()
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        for signs, value in perturbed_logliks(sample, report.final).items():
            assert value <= report.loglik + 1e-9
            if signs[1] != 0:  # any scale change leaves the ridge
                assert value < report.loglik

    def test_matches_exact_algebra_on_random_censored_samples(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 20:
            n = int(rng.integers(8, 40))
            x = rng.laplace(rng.uniform(-5, 5), rng.uniform(0.5, 4.0), size=n)
            t = float(np.quantile(x, rng.uniform(0.55, 0.85)))
            delta = (x <= t).astype(int)
            if delta.sum() < 3 or delta.sum() == n:
                continue
            sample = CensoredSample(np.minimum(x, t), delta)
            oracle = laplace_mle_single_censor_time(sample)
            report = fit_direct(sample, direct_config(Family.LAPLACE))
            assert report.loglik >= observed_loglik(sample, oracle) - 1e-8
            assert report.final.mu == pytest.approx(oracle.mu, rel=1e-5, abs=1e-6)
            assert report.final.sigma == pytest.approx(oracle.sigma, rel=1e-5)
            done += 1


def scan_canonical(sample):
    """A scan oracle: the profile log-likelihood l(v, profile_scale(v)) at
    every data value v, a flat top (within relative 1e-9 of the best)
    replaced by its midpoint, at the exact scale there."""
    x, c = np.sort(sample.uncensored), np.sort(sample.censor_times)

    def profile(v):
        return Laplace(float(v), Laplace.profile_scale(float(v), x, c))

    candidates = np.unique(sample.w)
    values = np.array([observed_loglik(sample, profile(v)) for v in candidates])
    top = values.max()
    flat = candidates[values >= top - 1e-9 * (1.0 + abs(top))]
    return profile(0.5 * (flat.min() + flat.max()) if flat.size > 1 else flat[0])


def assert_not_lower(got, want):
    """``got >= want`` up to rounding: the fit reaches at least the scan's top."""
    assert got >= want - 1e-12 * (1.0 + abs(want))


@st.composite
def grid_samples(draw):
    """Laplace samples on a quarter grid (so ties are exact and data values
    are well apart), with bounds all above the exact values, mixed among them
    or tied with them; exact values repeat once m exceeds the 81 grid points."""
    shape = draw(st.sampled_from(["above", "mixed", "tied"]))
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = int(rng.integers(2, n + 1))
    x = rng.integers(-40, 41, m) * 0.25
    if x.min() == x.max():
        x[0] += 0.25
    if shape == "above":
        c = x.max() + rng.integers(0, 9, n - m) * 0.25
    elif shape == "mixed":
        c = rng.integers(-40, 41, n - m) * 0.25
    else:
        c = rng.choice(x, n - m)
    return CensoredSample(np.concatenate([x, c]), np.r_[np.ones(m), np.zeros(n - m)])


@st.composite
def flat_top_samples(draw):
    """m distinct exact values and c < m bounds with m + c even, every bound
    above the (m + c)/2-th exact value: the location profile is flat from
    that value to the next data value.  Values are multiples of 1/8, so every
    sum here is exact."""
    m = draw(st.integers(2, 200))
    c = draw(st.integers(0, m - 1).filter(lambda c: (m + c) % 2 == 0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = np.sort(rng.choice(np.arange(-200, 201), m, replace=False))
    j = (m + c) // 2
    bounds = steps[j - 1] + rng.integers(1, 50, c)
    top = (steps[j - 1] / 8, min(([steps[j]] if j < m else []) + list(bounds)) / 8)
    w = np.concatenate([steps, bounds]) / 8
    return top, CensoredSample(w, np.r_[np.ones(m), np.zeros(c)])


class TestLaplaceCanonicalization:
    """The profile bisection reaches at least the top of a scan of the
    profile over every data value, and finds a flat top's midpoint."""

    @settings(max_examples=200, deadline=None)
    @given(sample=grid_samples())
    def test_matches_the_scan(self, sample):
        got = fit_direct(sample, direct_config(Family.LAPLACE)).final
        want = scan_canonical(sample)
        assert_not_lower(observed_loglik(sample, got), observed_loglik(sample, want))

    @settings(max_examples=100, deadline=None)
    @given(case=flat_top_samples())
    def test_flat_top_is_its_midpoint(self, case):
        (left, right), sample = case
        got = fit_direct(sample, direct_config(Family.LAPLACE)).final
        assert got.mu == 0.5 * (left + right)
        want = scan_canonical(sample)
        assert got.mu == want.mu
        assert_not_lower(observed_loglik(sample, got), observed_loglik(sample, want))

    @pytest.mark.parametrize("n", [200, 20_000])
    def test_evaluations_do_not_grow_with_n(self, n, monkeypatch):
        # both samples have their maximum inside a smooth segment, so the
        # count includes the bisection between two adjacent kinks
        rng = np.random.default_rng(n)
        x, bound = rng.laplace(1.0, 2.0, n), rng.normal(2.0, 3.0, n)
        sample = CensoredSample(np.minimum(x, bound), (x <= bound).astype(int))
        calls = []
        real = cemfit.direct.observed_loglik
        monkeypatch.setattr(cemfit.direct, "observed_loglik",
                            lambda *a: calls.append(1) or real(*a))
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert len(calls) == 1  # the report's log-likelihood
        assert report.iterations < 2 * math.log2(sample.m) + 70


def profile_scale_case(seed):
    """A random Laplace sample under normal bounds, its sorted exact values
    and bounds, and the location mu = its upper median exact value."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 3000))
    sc = 10 ** rng.uniform(-3, 3)
    x = rng.laplace(rng.uniform(-5, 5) * sc, sc, n)
    b = rng.normal(rng.uniform(-3, 3) * sc, rng.uniform(0.01, 10) * sc, n)
    y, c = np.sort(x[x <= b]), np.sort(b[x > b])
    return float(y[y.size // 2]), y, c


def mp_profile_tau(mu, y, c):
    """The root of the scale score in tau = 1/sigma at 40 digits (``mu`` an
    mpf), bracketed by tau = m/s, where the score is >= 0, and (m + number of
    bounds below mu)/s, where it is < 0 (each bound term is at most
    1/(e tau))."""
    with mpmath.workdps(40):
        s = mpmath.fsum([abs(mpmath.mpf(float(v)) - mu) for v in y]
                        + [mpmath.mpf(float(v)) - mu for v in c if v >= mu])
        a = [mu - mpmath.mpf(float(v)) for v in c if v < mu]

        def score(tau):
            return y.size / tau - s + mpmath.fsum(
                [ai * mpmath.exp(-ai * tau) / (2 - mpmath.exp(-ai * tau)) for ai in a])

        return mpmath.findroot(score, (y.size / s, (y.size + len(a)) / s), solver="illinois")


def mp_profile_scale(mu, y, c):
    with mpmath.workdps(40):
        return float(1 / mp_profile_tau(mpmath.mpf(mu), y, c))


def mp_profile_root(y, c, bracket):
    """The root at 40 digits of sigma times the profile's location slope,
    sum of sign(y - mu) + bounds at or above mu + e**z / (2 - e**z) over
    bounds below, z = (c - mu) / sigma(mu), inside ``bracket``, a range
    between two exact values where the slope is smooth."""
    with mpmath.workdps(40):
        def slope(mu):
            tau = mp_profile_tau(mu, y, c)
            e = [mpmath.exp((mpmath.mpf(float(v)) - mu) * tau) for v in c if v < mu]
            return (sum(1 if v > mu else -1 for v in y) + sum(1 for v in c if v >= mu)
                    + mpmath.fsum([ei / (2 - ei) for ei in e]))

        return float(mpmath.findroot(slope, tuple(map(mpmath.mpf, bracket)), solver="illinois"))


class TestProfileScale:
    """``Laplace.profile_scale`` is the exact maximizer of the censored
    log-likelihood in the scale at a fixed location."""

    # 36, 62 and 363 never stop under a relative step threshold: their last
    # steps stay above 1e-16 tau but below half an ulp of tau
    @pytest.mark.parametrize("seed", [36, 62, 363, 1, 2, 3])
    def test_matches_an_mpmath_root(self, seed):
        mu, y, c = profile_scale_case(seed)
        assert np.any(c < mu)
        want = mp_profile_scale(mu, y, c)
        assert Laplace.profile_scale(mu, y, c) == pytest.approx(want, rel=4.5e-16, abs=0)

    @pytest.mark.parametrize("e", [-900, -600, 600, 900])
    def test_scales_by_a_power_of_two_bit_for_bit(self, e):
        # tau**2 underflows or overflows at these scales; the scaled Newton does not see it
        for seed in (36, 1, 2):
            mu, y, c = profile_scale_case(seed)
            scaled = Laplace.profile_scale(math.ldexp(mu, e), np.ldexp(y, e), np.ldexp(c, e))
            assert scaled == math.ldexp(Laplace.profile_scale(mu, y, c), e)

    def test_no_bound_below_is_closed_form(self):
        sample = example_laplace()
        y, c = np.sort(sample.uncensored), np.sort(sample.censor_times)
        for mu in (0.5 * (y[9] + y[10]), float(y[0]), float(y[-1]), float(c[0])):
            s = math.fsum(np.abs(y - mu).tolist() + (c - mu).tolist())
            assert Laplace.profile_scale(mu, y, c) == s / y.size


class TestSmoothSegmentRoot:
    """Where the profile's maximum lies between two kinks, the bisection
    ends on the exact root of its slope."""

    # (exact values, bounds, a bracket inside the smooth segment, the root):
    # the second root lies above every exact value, behind the doubling bracket
    CASES = [((0.0, 1.0, 4.0), (-1.0, 2.5), (2.0, 3.0), 2.5646351),
             ((0.0, 1.0), (-2.0, 1.5, 1.5), (1.25, 2.0), 1.5034261)]

    @pytest.mark.parametrize("y, c, bracket, approx", CASES, ids=["inner", "above"])
    def test_matches_an_mpmath_root(self, y, c, bracket, approx):
        sample = CensoredSample(y + c, [1] * len(y) + [0] * len(c))
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        want = mp_profile_root(np.array(y), np.array(c), bracket)
        assert want == pytest.approx(approx, abs=1e-7)
        assert report.final.mu == pytest.approx(want, rel=0, abs=4 * math.ulp(want))
        assert report.converged


def kink_sample():
    """Laplace(1, 2) lifetimes under N(2, 3) bounds whose maximum sits on a
    kink with bounds below it (one-sided slopes +0.29 and -1.71 per sigma)."""
    rng = np.random.default_rng(7)
    n = int(rng.integers(20, 400))
    x, bound = rng.laplace(1.0, 2.0, n), rng.normal(2.0, 3.0, n)
    return CensoredSample(np.minimum(x, bound), (x <= bound).astype(int))


class TestLaplaceKink:
    """At a kink the score is the minimum-norm subgradient element, so a
    maximum there reads as converged and a point beside it does not."""

    def test_fit_at_a_kink_converges(self):
        sample = kink_sample()
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.converged
        assert report.final.mu in sample.uncensored
        assert type(report.final.mu) is float
        assert report.gradient_norm * report.final.sigma / sample.n <= 1e-6

    def test_cli_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "kink.csv"
        write_censored_csv(data, kink_sample())
        assert main(["fit", "--family", "laplace", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        assert "converged: yes" in capsys.readouterr().out

    def test_shifted_point_reads_unconverged(self):
        sample = kink_sample()
        mu, sigma = fit_direct(sample, direct_config(Family.LAPLACE)).final.reported()
        h = 1e-7 * sigma
        for shift in (-0.1, 0.1):
            at = mu + shift * sigma
            slope = (observed_loglik(sample, Laplace(at + h, sigma))
                     - observed_loglik(sample, Laplace(at - h, sigma))) / (2.0 * h)
            grad = loglik_gradient_norm(sample, Laplace(at, sigma))
            assert grad >= abs(slope) * (1.0 - 1e-6)
            assert abs(slope) * sigma / sample.n > 1e-6

    @pytest.mark.parametrize("start", [Laplace(0.2, 3.0), Laplace(1.7, 0.5)], ids=str)
    def test_bound_on_the_kink_leaves_no_flat_top(self, start):
        # at 1 the right slope is exactly 0 (1 above, 1 below, the tie, the
        # bound), but past it the bound lies below the location, so the
        # profile falls off and the maximum is the kink, not a midpoint
        sample = CensoredSample([0.0, 1.0, 2.0, 1.0], [1, 1, 1, 0])
        report = fit_direct(sample, FitConfig(Family.LAPLACE, Algorithm.DIRECT, start=start))
        assert report.final.mu == 1.0
        assert report.converged


class TestRayleighDirect:
    def test_reference_data_matches_tabulated_mle(self):
        report = fit_direct(example_rayleigh(), direct_config(Family.RAYLEIGH))
        assert report.final.beta == pytest.approx(rv.RAYLEIGH_MLE, abs=1e-3)

    def test_agrees_with_closed_form(self):
        sample = example_rayleigh()
        closed = rayleigh_mle_closed_form(sample)
        report = fit_direct(sample, direct_config(Family.RAYLEIGH))
        assert report.final.beta == pytest.approx(closed.beta, abs=1e-6)

    def test_argmax_beats_nearby_points(self):
        sample = example_rayleigh()
        report = fit_direct(sample, direct_config(Family.RAYLEIGH))
        for value in perturbed_logliks(sample, report.final).values():
            assert value < report.loglik

    @pytest.mark.parametrize("e", range(-12, 21))
    def test_any_start_gives_the_closed_form_bit_for_bit(self, e):
        # the maximum is unique and closed-form, so the start cannot move it
        sample = example_rayleigh()
        closed = rayleigh_mle_closed_form(sample)
        start = Rayleigh(closed.beta * 10.0 ** e)
        report = fit_direct(sample, FitConfig(Family.RAYLEIGH, Algorithm.DIRECT, start=start))
        assert report.converged
        assert report.iterations == 0
        assert report.final.beta == closed.beta


class TestRayleighClosedForm:
    def test_reference_data_value(self):
        closed = rayleigh_mle_closed_form(example_rayleigh())
        assert closed.beta == pytest.approx(rv.RAYLEIGH_MLE, abs=1e-3)

    def test_hand_computed_sums(self):
        sample = example_rayleigh()
        y = sample.uncensored
        b2 = (math.fsum(y * y) + 5 * 10.627**2) / 30.0
        assert rayleigh_mle_closed_form(sample).beta == pytest.approx(
            math.sqrt(b2), rel=1e-15)

    def test_single_observation(self):
        s = CensoredSample([1.0], [1])
        assert rayleigh_mle_closed_form(s).beta == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-15)

    def test_constant_sample(self):
        c = 3.7
        s = CensoredSample(np.full(6, c), np.ones(6, dtype=int))
        assert rayleigh_mle_closed_form(s).beta == pytest.approx(
            c / math.sqrt(2.0), rel=1e-14)

    def test_score_vanishes_at_the_root(self):
        sample = example_rayleigh()
        closed = rayleigh_mle_closed_form(sample)
        assert loglik_gradient_norm(sample, closed) <= 1e-5

    def test_rejects_all_censored(self):
        with pytest.raises(DataError):
            rayleigh_mle_closed_form(CensoredSample([1.0, 2.0], [0, 0]))


class TestGuards:
    def test_requires_direct_algorithm(self):
        with pytest.raises(ParameterError):
            fit_direct(example_normal(), FitConfig(Family.NORMAL, Algorithm.EM))

    def test_rejects_unfittable_sample(self):
        s = CensoredSample([1.0, 2.0], [0, 0])
        with pytest.raises(DataError):
            fit_direct(s, direct_config(Family.NORMAL))

    def test_gradient_norm_is_large_away_from_the_mle(self):
        sample = example_normal()
        assert loglik_gradient_norm(sample, Normal(1.0, 1.0)) > 1.0


def _reference_mle(family, sample):
    """The independent oracle each family's direct fit is checked against."""
    if family is Family.NORMAL:
        return fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM,
                                        tol=1e-12, max_iter=5000)).final
    if family is Family.LAPLACE:
        return laplace_mle_single_censor_time(sample)
    return rayleigh_mle_closed_form(sample)


BUNDLED = {Family.NORMAL: example_normal, Family.LAPLACE: example_laplace,
           Family.RAYLEIGH: example_rayleigh}


@pytest.mark.parametrize("family", list(BUNDLED), ids=str)
def test_reported_coordinates_are_python_floats(family):
    report = fit_direct(BUNDLED[family](), direct_config(family))
    assert all(type(v) is float for v in report.final.reported())


# (family, location shift in scales, scale factor) away from the moment start
FAR_STARTS = [
    (family, shift, factor)
    for family in BUNDLED
    for shift in ((0.0,) if family is Family.RAYLEIGH else (0.0, -20.0, 20.0))
    for factor in (1e-3, 1.0, 1e3)
    if (shift, factor) != (0.0, 1.0)
] + [
    # Newton from starts up to 1e10 scales off, where lam - a loses its digits
    # in the normal Hessian
    (Family.NORMAL, shift, factor)
    for shift in (0.0, -1e4, 1e4)
    for factor in (1e-10, 1e-8, 1e8, 1e10)
] + [(Family.RAYLEIGH, 0.0, 1e-8), (Family.RAYLEIGH, 0.0, 1e8)]


class TestOneSearch:
    """Every family's censored log-likelihood has a single maximum, so one
    search per fit reaches it, even from a start far away: Newton for the
    normal family, the closed form for Rayleigh and the profile bisection for
    Laplace, neither of which reads the start; no fit runs a simplex."""

    @pytest.mark.parametrize("family", list(BUNDLED), ids=str)
    def test_no_fit_runs_a_simplex_search(self, family, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("direct.minimize called")

        monkeypatch.setattr(cemfit.direct, "minimize", refuse)
        assert fit_direct(BUNDLED[family](), direct_config(family)).converged

    @pytest.mark.parametrize("family, shift, factor", FAR_STARTS, ids=str)
    def test_far_start_reaches_the_reference(self, family, shift, factor):
        sample = BUNDLED[family]()
        base = default_start(sample, family)
        *loc, scale = base.reported()
        start = type(base).from_reported(*(v + shift * scale for v in loc), scale * factor)
        report = fit_direct(sample, FitConfig(family, Algorithm.DIRECT, start=start))
        assert report.converged
        ref = _reference_mle(family, sample).reported()
        for got, want in zip(report.final.reported(), ref, strict=True):
            assert got == pytest.approx(want, rel=0, abs=1e-6 * ref[-1])


class TestNonConvergence:
    """A search cut short by its iteration cap is reported, not hidden.  Only
    Newton has a cap: the Laplace profile bisection always ends."""

    @pytest.fixture
    def capped_newton(self, monkeypatch):
        # the bundled normal sample needs 5 Newton steps
        monkeypatch.setattr(cemfit.direct, "_NEWTON_MAX_STEPS", 3)

    @pytest.mark.parametrize("family, capped", [(Family.NORMAL, "capped_newton")], ids=str)
    def test_returns_a_consistent_report(self, family, capped, request):
        request.getfixturevalue(capped)
        sample = BUNDLED[family]()
        report = cemfit.fit(sample, direct_config(family))
        assert not report.converged
        assert report.iterations == 3
        assert report.loglik == observed_loglik(sample, report.final)
        assert report.gradient_norm == loglik_gradient_norm(sample, report.final)

    @pytest.mark.parametrize("family, capped", [(Family.NORMAL, "capped_newton")], ids=str)
    def test_cli_says_so_and_exits_two(self, family, capped, request, capsys):
        request.getfixturevalue(capped)
        assert main(["fit", "--family", family.value, "--algorithm", "direct",
                     "--data", str(dataset_path(f"{family.value}_type2"))]) == 2
        assert "converged: no" in capsys.readouterr().out


# samples on which a direct search once raised mid-run: a Newton decrement
# whose product g * step overflows (ValueError: -inf + inf in fsum), and a
# Laplace profile scale whose tau**2 underflowed to 0 (ZeroDivisionError)
NEWTON_OVERFLOW = CensoredSample([2.585474207743773e-79, 3.415167637007913e+140], [1, 0])
LAPLACE_TINY_TAU = CensoredSample(
    [1.372004807840177e+197, 3.0218579787780517e+49, 4.920910225986716e+104], [1, 1, 0])


class TestOverflowInTheSearch:
    def test_an_overflowing_decrement_reads_as_a_singular_hessian(self):
        start = default_start(NEWTON_OVERFLOW, Family.NORMAL)
        step, decrement = cemfit.direct._newton_direction(start, NEWTON_OVERFLOW)
        assert step is None and math.isnan(decrement)

    def test_newton_ends_unconverged_at_finite_values(self, tmp_path, capsys):
        report = cemfit.fit(NEWTON_OVERFLOW, direct_config(Family.NORMAL))
        assert not report.converged
        assert all(map(math.isfinite, report.final.reported()))
        assert math.isfinite(report.loglik) and math.isfinite(report.gradient_norm)
        data = tmp_path / "overflow.csv"
        write_censored_csv(data, NEWTON_OVERFLOW)
        assert main(["fit", "--family", "normal", "--algorithm", "direct",
                     "--data", str(data)]) == 2
        assert "converged: no" in capsys.readouterr().out

    def test_laplace_fit_at_a_tiny_tau_is_exact(self, tmp_path, capsys):
        # the conftest check holds the scale to the exact profile root
        report = cemfit.fit(LAPLACE_TINY_TAU, direct_config(Family.LAPLACE))
        assert report.converged
        assert report.final.mu == 1.372004807840177e+197
        data = tmp_path / "tiny-tau.csv"
        write_censored_csv(data, LAPLACE_TINY_TAU)
        assert main(["fit", "--family", "laplace", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        capsys.readouterr()


def no_maximum_sample():
    """One exact value with both bounds below it: the likelihood grows without
    bound as the location sits on the exact value and the scale goes to 0."""
    return CensoredSample([1.0, 0.5, 0.4], [1, 0, 0])


class TestNoMaximum:
    """A normal or Laplace sample whose likelihood has no maximum is refused
    by every route, as an all-censored sample is."""

    ROUTES = [(Family.NORMAL, Algorithm.EM), (Family.NORMAL, Algorithm.MCEM),
              (Family.NORMAL, Algorithm.DIRECT), (Family.LAPLACE, Algorithm.MCEM),
              (Family.LAPLACE, Algorithm.DIRECT)]

    @pytest.mark.parametrize("family, algorithm", ROUTES, ids=str)
    def test_every_route_refuses(self, family, algorithm):
        with pytest.raises(DataError, match="likelihood unbounded"):
            cemfit.fit(no_maximum_sample(), FitConfig(family, algorithm, k=10))

    @pytest.mark.parametrize("family, algorithm", ROUTES, ids=str)
    def test_cli_refuses_and_exits_one(self, family, algorithm, tmp_path, capsys):
        data = tmp_path / "nomax.csv"
        write_censored_csv(data, no_maximum_sample())
        assert main(["fit", "--family", family.value, "--algorithm", algorithm.value,
                     "--k", "10", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert "likelihood unbounded" in captured.err
        assert "converged" not in captured.out

    @pytest.mark.parametrize("w, delta", [
        ([1.0, 0.5, 0.4, 1.5], [1, 0, 0, 0]),     # a bound above the exact value
        ([1.0, 1.2, 0.5, 0.4], [1, 1, 0, 0]),     # two distinct exact values
    ], ids=["bound-above", "two-values"])
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LAPLACE], ids=str)
    def test_a_sample_with_a_maximum_is_fitted(self, family, w, delta):
        report = fit_direct(CensoredSample(w, delta), direct_config(family))
        assert report.converged
        assert report.final.reported()[-1] > 1e-3

    def test_rayleigh_is_not_refused(self):
        # the Rayleigh scale is closed-form and positive on any sample
        report = fit_direct(no_maximum_sample(), direct_config(Family.RAYLEIGH))
        assert report.converged
        assert report.final == rayleigh_mle_closed_form(no_maximum_sample())

    def test_newton_stops_at_a_singular_hessian(self):
        # the search itself, under the refusal: it climbs toward scale 0 and
        # reports that it did not end rather than leaking a ParameterError
        sample = no_maximum_sample()
        start = default_start(sample, Family.NORMAL)
        params, _, _, ended = cemfit.direct._fit_newton(sample, start)
        assert not ended
        mu, sigma = params.reported()
        assert math.isfinite(mu) and 0.0 < sigma < 1e-6
        loglik = observed_loglik(sample, params)
        assert math.isfinite(loglik)
        # the climb was real: far above the start's log-likelihood
        assert loglik > observed_loglik(sample, start) + 10.0


class TestScaleFreeConvergence:
    """``converged`` reads the mean score in units of the fitted scale, so it
    neither hardens with n nor moves when the data are rescaled."""

    @pytest.fixture(scope="class")
    def large(self):
        # n=20000 normal lifetimes, each censored at its own bound: ~30% censored
        rng = np.random.default_rng(20000)
        x = rng.normal(10.0, 2.0, 20_000)
        bound = rng.normal(11.5, 2.0, 20_000)
        return np.minimum(x, bound), (x <= bound).astype(int)

    def test_large_and_rescaled_samples_converge(self, large):
        w, delta = large
        report = fit_direct(CensoredSample(w, delta), direct_config(Family.NORMAL))
        assert report.converged
        scaled = fit_direct(CensoredSample(w * 1000.0, delta), direct_config(Family.NORMAL))
        assert scaled.converged

    def test_criterion_is_the_mean_score_in_scale_units(self, large):
        # 1e-7 sigma off the argmax the absolute score norm already exceeds
        # 1e-5 at this n, while the mean score in scale units stays small
        sample = CensoredSample(*large)
        mu, sigma = fit_direct(sample, direct_config(Family.NORMAL)).final.reported()
        norm = loglik_gradient_norm(sample, Normal.from_reported(mu + 1e-7 * sigma, sigma))
        assert norm > 1e-5
        assert norm * sigma / sample.n <= 1e-6

    def test_cli_exits_zero(self, large, tmp_path, capsys):
        data = tmp_path / "large.csv"
        write_censored_csv(data, CensoredSample(*large))
        assert main(["fit", "--family", "normal", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        assert "converged: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("e", [-600, -1000])
    def test_laplace_fit_at_a_tiny_scale(self, e, tmp_path, capsys):
        # sigma * sigma underflows to 0 below about 1e-162, so the scale
        # score once divided by zero; scaling by 2**e is exact, so the fit is
        # the unscaled one times 2**e
        base = example_laplace()
        sample = CensoredSample(base.w * 2.0**e, base.delta)
        want = fit_direct(base, direct_config(Family.LAPLACE)).final.reported()
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.final.reported() == tuple(v * 2.0**e for v in want)
        assert report.converged
        data = tmp_path / "tiny.csv"
        write_censored_csv(data, sample)
        assert main(["fit", "--family", "laplace", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        assert "converged: yes" in capsys.readouterr().out


def central_difference_score(sample, params, rel=1e-6):
    """Central differences of ``observed_loglik`` in the reported coordinates,
    step ``rel`` times the scale."""
    vec = list(params.reported())
    h = rel * vec[-1]
    make = type(params).from_reported
    grads = []
    for j in range(len(vec)):
        hi, lo = list(vec), list(vec)
        hi[j] += h
        lo[j] -= h
        grads.append((observed_loglik(sample, make(*hi))
                      - observed_loglik(sample, make(*lo))) / (2.0 * h))
    return grads


def mixed_bound_sample(family, n=400, seed=11):
    """Lifetimes of ``family`` at location 1, scale 2, each censored at its own
    bound; bounds lie on both sides of the location."""
    rng = np.random.default_rng(seed)
    if family is Family.NORMAL:
        x = rng.normal(1.0, 2.0, n)
    elif family is Family.LAPLACE:
        x = rng.laplace(1.0, 2.0, n)
    else:
        x = rng.rayleigh(2.0, n)
    bound = np.abs(rng.normal(2.0, 3.0, n)) if family is Family.RAYLEIGH else rng.normal(2.0, 3.0, n)
    return CensoredSample(np.minimum(x, bound), (x <= bound).astype(int))


# (location shift, scale factor) in units of the MLE scale, away from the maximum
OFF_MAXIMUM = [(0.37, 1.3), (-0.61, 0.8), (1.13, 2.1)]


class TestAnalyticScore:
    """``loglik_gradient_norm`` is the closed-form score; away from the
    maximum (and from the Laplace kinks) it matches central differences of
    the log-likelihood."""

    @pytest.mark.parametrize("family", list(BUNDLED), ids=str)
    @pytest.mark.parametrize("shift, factor", OFF_MAXIMUM, ids=str)
    @pytest.mark.parametrize("which", ["bundled", "mixed"])
    def test_matches_central_differences(self, family, shift, factor, which):
        sample = BUNDLED[family]() if which == "bundled" else mixed_bound_sample(family)
        *loc, scale = fit_direct(sample, direct_config(family)).final.reported()
        params = type(default_start(sample, family)).from_reported(
            *(v + shift * scale for v in loc), factor * scale)
        if family is Family.LAPLACE:
            # off the kinks: the midpoint between the data values around mu
            w = np.unique(sample.w)
            i = int(np.searchsorted(w, params.mu))
            if 0 < i < w.size:
                params = Laplace(0.5 * float(w[i - 1] + w[i]), params.sigma)
            assert np.min(np.abs(sample.uncensored - params.mu)) > 1e-3 * params.sigma
        want = central_difference_score(sample, params)
        got = loglik_gradient_norm(sample, params)
        assert got == pytest.approx(math.hypot(*want), rel=1e-6)
        for a, b in zip(params.reported_score(sample), want, strict=True):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6 * got)


def normal_case(n, seed, shape, depth):
    """(sigma, sample): a normal sample of ``n`` units, at least two of
    them distinct exact values (so a maximum exists), drawn from ``seed``
    and censored per unit (``shape`` "per-unit"), at one common time
    ("single"), or Type-II ("type2"), with bounds from 2 sd below the mean
    to ``depth`` sd above it.  The mean lies within 20 sd of 0, where EM's
    variance update (a difference of second moments) keeps its rounding
    below 1e-11 sd."""
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** rng.uniform(-2.0, 2.0)
    mu = sigma * rng.uniform(-20.0, 20.0)
    m = int(rng.integers(2, n + 1))
    x = mu + sigma * rng.normal(size=m)
    if x.min() == x.max():
        x[0] += sigma
    if shape == "per-unit":
        z = rng.uniform(-2.0, depth, n - m) if depth > -2.0 else np.full(n - m, -2.0)
    elif shape == "single":
        z = np.full(n - m, depth)
    else:
        x = np.sort(x)
        z = np.full(n - m, (x[-1] - mu) / sigma)
    c = mu + sigma * z
    return sigma, CensoredSample(np.concatenate([x, c]), np.r_[np.ones(m), np.zeros(n - m)])


@st.composite
def normal_censored_samples(draw):
    """``normal_case`` of n = 2..300 and depth -2..30."""
    n = draw(st.integers(2, 300))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    shape = draw(st.sampled_from(["per-unit", "single", "type2"]))
    return normal_case(n, seed, shape, draw(st.floats(-2.0, 30.0)))


def newton_iterates(sample, start):
    """A normal direct fit from ``start`` and every point a Newton direction
    was taken at: the start and each point the line search accepted."""
    seen = []
    real = cemfit.direct._newton_direction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cemfit.direct, "_newton_direction",
                   lambda params, *a: seen.append(params) or real(params, *a))
        report = fit_direct(sample, FitConfig(Family.NORMAL, Algorithm.DIRECT, start=start))
    return report, seen


class TestNewtonProperties:
    @settings(max_examples=80, deadline=None)
    @given(case=normal_censored_samples(), shift=st.floats(-20.0, 20.0),
           factor=st.floats(-3.0, 3.0))
    # samples whose log-likelihood, near 0.02, sums terms near 4: near the
    # maximum the Armijo bound rounds to the current value there, so only a
    # strict rise keeps the line search from accepting a step that gains nothing
    @example(case=normal_case(129, 347721964, "per-unit", 7.1875), shift=0.0, factor=0.0)
    @example(case=normal_case(100, 239, "type2", 0.0), shift=20.0, factor=3.0)
    def test_argmax_is_the_em_fixed_point_by_ascent(self, case, shift, factor):
        # from the moment start moved by ``shift`` sd and its scale times 10**factor
        _, sample = case
        mu, sigma = default_start(sample, Family.NORMAL).reported()
        start = Normal.from_reported(mu + shift * sigma, sigma * 10.0 ** factor)
        report, seen = newton_iterates(sample, start)
        assert report.converged
        # the line search accepts only steps that raise the log-likelihood
        logliks = [observed_loglik(sample, p) for p in seen]
        assert all(b > a for a, b in zip(logliks, logliks[1:]))
        # the last, unsearched full step is far below rounding of the loglik
        assert report.loglik >= logliks[-1] - 1e-14 * (1.0 + abs(logliks[-1]))
        em = fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM,
                                      tol=1e-11, max_iter=50_000))
        assert em.converged
        for got, want in zip(report.final.reported(), em.final.reported(), strict=True):
            assert got == pytest.approx(want, rel=0, abs=1e-6 * em.final.sigma)

    def test_an_overshooting_full_step_is_cut_back(self):
        # 8 exact values under 96 bounds, started far from the maximum: a full
        # Newton step from some iterate lowers the log-likelihood, and the
        # line search must cut it back
        rng = np.random.default_rng(127)
        n = int(rng.integers(5, 200))
        m = int(rng.integers(2, n + 1))
        x, c = rng.normal(0.0, 1.0, m), rng.uniform(-2.0, 5.0, n - m)
        sample = CensoredSample(np.r_[x, c], np.r_[np.ones(m), np.zeros(n - m)])
        mu, sigma = default_start(sample, Family.NORMAL).reported()
        start = Normal.from_reported(mu + rng.uniform(-20, 20) * sigma,
                                     sigma * 10.0 ** rng.uniform(-3, 3))
        report, seen = newton_iterates(sample, start)
        assert report.converged
        logliks = [observed_loglik(sample, p) for p in seen]
        assert all(b > a for a, b in zip(logliks, logliks[1:]))
        overshoots = 0
        for params, value in zip(seen, logliks):
            step, _ = cemfit.direct._newton_direction(params, sample)
            full = Normal.from_concave(*(a + b for a, b in zip(params.to_concave(), step)))
            overshoots += observed_loglik(sample, full) < value
        assert overshoots >= 1


class TestLazyOptimizeImport:
    def test_no_direct_fit_imports_scipy_optimize(self):
        # a fresh interpreter: this test session has long imported scipy.optimize
        code = (
            "import sys, cemfit, cemfit.cli\n"
            "from cemfit.datasets import example_laplace, example_normal, example_rayleigh\n"
            "def fit(family, sample):\n"
            "    cemfit.fit_direct(sample, cemfit.FitConfig(family, cemfit.Algorithm.DIRECT))\n"
            "    return 'scipy.optimize' in sys.modules\n"
            "print('scipy.optimize' in sys.modules,"
            " fit(cemfit.Family.NORMAL, example_normal()),"
            " fit(cemfit.Family.RAYLEIGH, example_rayleigh()),"
            " fit(cemfit.Family.LAPLACE, example_laplace()))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "False", "False"]
