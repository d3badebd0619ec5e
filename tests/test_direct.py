"""Direct likelihood maximization against exact and tabulated oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemfit.censoring import CensoredSample, observed_loglik, write_censored_csv
from cemfit.cli import main
from cemfit.datasets import dataset_path, example_laplace, example_normal, example_rayleigh
import cemfit.direct
from cemfit.direct import fit_direct, loglik_gradient_norm, rayleigh_mle_closed_form
from cemfit.distributions import Family, Laplace, Normal, Rayleigh
from cemfit.em import fit_em
from cemfit.exceptions import DataError, NonConvergenceError, ParameterError
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
        mu, sigma = report.argmax.reported()
        assert mu == pytest.approx(rv.NORMAL_MLE[0], abs=5e-4)
        assert sigma == pytest.approx(rv.NORMAL_MLE[1], abs=5e-4)
        assert report.gradient_norm <= 1e-5

    def test_agrees_with_em_fixed_point(self):
        sample = example_normal()
        em = fit_em(sample, FitConfig(Family.NORMAL, Algorithm.EM,
                                      tol=1e-12, max_iter=5000))
        direct = fit_direct(sample, direct_config(Family.NORMAL))
        for a, b in zip(em.final.reported(), direct.argmax.reported()):
            assert a == pytest.approx(b, abs=1e-4)

    def test_report_is_internally_consistent(self):
        sample = example_normal()
        report = fit_direct(sample, direct_config(Family.NORMAL))
        assert report.loglik == observed_loglik(sample, report.argmax)
        assert report.gradient_norm == loglik_gradient_norm(sample, report.argmax)
        assert report.iterations >= 1

    def test_argmax_beats_nearby_points(self):
        sample = example_normal()
        report = fit_direct(sample, direct_config(Family.NORMAL))
        for value in perturbed_logliks(sample, report.argmax).values():
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
            for a, b in zip(em.final.reported(), direct.argmax.reported()):
                assert a == pytest.approx(b, abs=5e-4)


class TestLaplaceDirect:
    def test_reference_data_matches_exact_algebra(self):
        sample = example_laplace()
        oracle = laplace_mle_single_censor_time(sample)
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.argmax.mu == oracle.mu
        assert report.argmax.sigma == pytest.approx(oracle.sigma, rel=1e-6)

    def test_reference_data_matches_tabulated_mle(self):
        report = fit_direct(example_laplace(), direct_config(Family.LAPLACE))
        mu, sigma = report.argmax.reported()
        assert mu == pytest.approx(rv.LAPLACE_MLE[0], abs=1e-3)
        assert sigma == pytest.approx(rv.LAPLACE_MLE[1], abs=1e-3)

    def test_location_sits_mid_flat_segment(self):
        # the location profile is flat between the 10th and 11th order
        # statistics; the reported location is the conventional midpoint
        sample = example_laplace()
        y = np.sort(sample.uncensored)
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        assert report.argmax.mu == 0.5 * (y[9] + y[10])

    def test_argmax_is_a_maximizer_up_to_the_flat_ridge(self):
        sample = example_laplace()
        report = fit_direct(sample, direct_config(Family.LAPLACE))
        for signs, value in perturbed_logliks(sample, report.argmax).items():
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
            assert report.argmax.mu == pytest.approx(oracle.mu, rel=1e-5, abs=1e-6)
            assert report.argmax.sigma == pytest.approx(oracle.sigma, rel=1e-5)
            done += 1


def scan_canonical(sample, best):
    """The former canonicalization, kept as an oracle: one log-likelihood
    evaluation per data value, a flat top (within relative 1e-9 of the best)
    replaced by its midpoint, then the same scale refit and guard."""
    candidates = np.unique(np.concatenate([sample.w, [best.mu]]))
    values = np.array([
        observed_loglik(sample, Laplace(float(c), best.sigma)) for c in candidates
    ])
    top = values.max()
    flat = candidates[values >= top - 1e-9 * (1.0 + abs(top))]
    loc = 0.5 * (flat.min() + flat.max()) if flat.size > 1 else float(candidates[np.argmax(values)])
    t0 = math.log(best.sigma)
    res = cemfit.direct.minimize_scalar(
        lambda t: -observed_loglik(sample, Laplace(loc, math.exp(t))),
        bounds=(t0 - 5.0, t0 + 5.0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    refined = Laplace(loc, math.exp(float(res.x)))
    base = observed_loglik(sample, best)
    if observed_loglik(sample, refined) >= base - 1e-9 * (1.0 + abs(base)):
        return refined
    return best


def simplex_point(sample):
    """The Laplace simplex argmax that ``fit_direct`` hands to canonicalization."""
    seen = []
    real = cemfit.direct._canonicalize_laplace
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cemfit.direct, "_canonicalize_laplace",
                   lambda s, best: seen.append(best) or real(s, best))
        try:
            fit_direct(sample, direct_config(Family.LAPLACE))
        except NonConvergenceError:
            pass
    return seen[0]


def assert_not_lower(got, want):
    """``got >= want`` up to the rounding of two separately refitted scales."""
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
    """Bisection on the exact location subgradient finds what the
    one-evaluation-per-data-value scan found."""

    @settings(max_examples=200, deadline=None)
    @given(sample=grid_samples())
    def test_matches_the_scan(self, sample):
        best = simplex_point(sample)
        got = cemfit.direct._canonicalize_laplace(sample, best)
        want = scan_canonical(sample, best)
        if got.mu != pytest.approx(want.mu, rel=0, abs=1e-9 * best.sigma):
            # the scan calls every candidate within relative 1e-9 of its top
            # flat and takes their midpoint; beside a kink with a bound on it
            # the profile falls off only quadratically, so the simplex point
            # and that kink both pass and the scan lands between them
            assert any(want.mu == 0.5 * (v + best.mu) for v in np.unique(sample.w))
        assert_not_lower(observed_loglik(sample, got), observed_loglik(sample, want))

    @settings(max_examples=100, deadline=None)
    @given(case=flat_top_samples())
    def test_flat_top_is_its_midpoint(self, case):
        (left, right), sample = case
        best = simplex_point(sample)
        got = cemfit.direct._canonicalize_laplace(sample, best)
        assert got.mu == 0.5 * (left + right)
        want = scan_canonical(sample, best)
        assert got.mu == want.mu
        assert_not_lower(observed_loglik(sample, got), observed_loglik(sample, want))

    @pytest.mark.parametrize("n", [200, 20_000])
    def test_evaluations_do_not_grow_with_n(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x, bound = rng.laplace(1.0, 2.0, n), rng.normal(2.0, 3.0, n)
        sample = CensoredSample(np.minimum(x, bound), (x <= bound).astype(int))
        calls = []
        real = cemfit.direct.observed_loglik
        monkeypatch.setattr(cemfit.direct, "observed_loglik",
                            lambda *a: calls.append(1) or real(*a))
        cemfit.direct._canonicalize_laplace(sample, Laplace(1.0, 2.0))
        assert len(calls) <= 100


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
        assert report.argmax.mu in sample.uncensored
        assert type(report.argmax.mu) is float
        assert report.gradient_norm * report.argmax.sigma / sample.n <= 1e-6

    def test_cli_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "kink.csv"
        write_censored_csv(data, kink_sample())
        assert main(["fit", "--family", "laplace", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        assert "converged: yes" in capsys.readouterr().out

    def test_shifted_point_reads_unconverged(self):
        sample = kink_sample()
        mu, sigma = fit_direct(sample, direct_config(Family.LAPLACE)).argmax.reported()
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
        assert report.argmax.mu == 1.0
        assert report.converged


class TestRayleighDirect:
    def test_reference_data_matches_tabulated_mle(self):
        report = fit_direct(example_rayleigh(), direct_config(Family.RAYLEIGH))
        assert report.argmax.beta == pytest.approx(rv.RAYLEIGH_MLE, abs=1e-3)

    def test_agrees_with_closed_form(self):
        sample = example_rayleigh()
        closed = rayleigh_mle_closed_form(sample)
        report = fit_direct(sample, direct_config(Family.RAYLEIGH))
        assert report.argmax.beta == pytest.approx(closed.beta, abs=1e-6)

    def test_argmax_beats_nearby_points(self):
        sample = example_rayleigh()
        report = fit_direct(sample, direct_config(Family.RAYLEIGH))
        for value in perturbed_logliks(sample, report.argmax).values():
            assert value < report.loglik


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
    assert all(type(v) is float for v in report.argmax.reported())


# (family, location shift in scales, scale factor) away from the moment start
FAR_STARTS = [
    (family, shift, factor)
    for family in BUNDLED
    for shift in ((0.0,) if family is Family.RAYLEIGH else (0.0, -20.0, 20.0))
    for factor in (1e-3, 1.0, 1e3)
    if (shift, factor) != (0.0, 1.0)
]


class TestOneSearch:
    """Every family's censored log-likelihood has a single maximum, so one
    simplex search per fit reaches it, even from a start far away."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        real = cemfit.direct.minimize

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cemfit.direct, "minimize", counting)
        return calls

    @pytest.mark.parametrize("family", list(BUNDLED), ids=str)
    def test_one_search_per_fit(self, family, searches):
        fit_direct(BUNDLED[family](), direct_config(family))
        assert len(searches) == 1

    @pytest.mark.parametrize("family, shift, factor", FAR_STARTS, ids=str)
    def test_far_start_reaches_the_reference(self, family, shift, factor, searches):
        sample = BUNDLED[family]()
        base = default_start(sample, family)
        *loc, scale = base.reported()
        start = type(base).from_reported(*(v + shift * scale for v in loc), scale * factor)
        report = fit_direct(sample, FitConfig(family, Algorithm.DIRECT, start=start))
        assert len(searches) == 1
        assert report.converged
        ref = _reference_mle(family, sample).reported()
        for got, want in zip(report.argmax.reported(), ref, strict=True):
            assert got == pytest.approx(want, rel=0, abs=1e-6 * ref[-1])


class TestNonConvergence:
    """A search cut short by its iteration cap is reported, not hidden."""

    @pytest.fixture(autouse=True)
    def capped_search(self, monkeypatch):
        real = cemfit.direct.minimize

        def capped(fun, x0, **kwargs):
            return real(fun, x0, **{**kwargs, "options": {**kwargs["options"], "maxiter": 3}})

        monkeypatch.setattr(cemfit.direct, "minimize", capped)

    def test_raises_with_a_consistent_report(self):
        sample = example_normal()
        with pytest.raises(NonConvergenceError) as info:
            fit_direct(sample, direct_config(Family.NORMAL))
        report = info.value.report
        assert not report.converged
        assert report.iterations == 3
        assert report.loglik == observed_loglik(sample, report.argmax)

    def test_cli_says_so_and_exits_two(self, capsys):
        assert main(["fit", "--family", "normal", "--algorithm", "direct",
                     "--data", str(dataset_path("normal_type2"))]) == 2
        assert "converged: no" in capsys.readouterr().out


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
        assert report.gradient_norm > 1e-5  # the absolute score norm grows with n
        scaled = fit_direct(CensoredSample(w * 1000.0, delta), direct_config(Family.NORMAL))
        assert scaled.converged

    def test_cli_exits_zero(self, large, tmp_path, capsys):
        data = tmp_path / "large.csv"
        write_censored_csv(data, CensoredSample(*large))
        assert main(["fit", "--family", "normal", "--algorithm", "direct",
                     "--data", str(data)]) == 0
        assert "converged: yes" in capsys.readouterr().out


class TestLazyOptimizeImport:
    def test_scipy_optimize_loads_on_the_first_direct_fit(self):
        # a fresh interpreter: this test session has long imported scipy.optimize
        code = (
            "import sys, cemfit, cemfit.cli\n"
            "from cemfit.datasets import example_rayleigh\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "cemfit.fit_direct(example_rayleigh(),"
            " cemfit.FitConfig(cemfit.Family.RAYLEIGH, cemfit.Algorithm.DIRECT))\n"
            "print(before, 'scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
