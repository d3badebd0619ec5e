"""Direct likelihood maximization against exact and tabulated oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
