"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test covers one numbered guarantee and prints a single PASS line when it
holds (run with -s to see the lines; a failed assertion is the FAIL line).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from cemfit.censoring import CensoredSample, observed_loglik
from cemfit.datasets import example_laplace, example_normal, example_rayleigh
from cemfit.cli import main
from cemfit.direct import fit_direct, loglik_gradient_norm, rayleigh_mle_closed_form
from cemfit.distributions import Family, Laplace, Normal, Rayleigh
from cemfit.em import e_step, fit_em
from cemfit.fitting import Algorithm, FitConfig
from cemfit.mcem import fit_mcem
from cemfit.streams import RandomStream
from cemfit.truncated import (
    sample_truncated_laplace,
    sample_truncated_normal,
    sample_truncated_rayleigh,
)

import reference_values as rv
from test_truncated import (
    LAPLACE_CASES,
    NORMAL_CASES,
    RAYLEIGH_CASES,
    U_GRID,
    truncated_cdf_laplace,
    truncated_cdf_normal,
    truncated_cdf_rayleigh,
)


def ok(num, message):
    print(f"ACCEPTANCE {num:02d}: PASS  {message}")


def rounds_to(value, reference):
    return f"{value:.4f}" == f"{reference:.4f}"


def em_config(**kw):
    return FitConfig(Family.NORMAL, Algorithm.EM, **kw)


def test_01_exact_em_reproduces_the_reference_traces():
    sample = example_normal()
    t0 = time.perf_counter()
    trace_a = fit_em(sample, em_config(start=Normal(1.7, 0.004),
                                       max_iter=12, tol=1e-13))
    trace_b = fit_em(sample, em_config(start=Normal(0.0, 1.0),
                                       max_iter=12, tol=1e-13))
    elapsed = time.perf_counter() - t0
    for trace, table in ((trace_a, rv.EM_NORMAL_TRACE_START_A),
                         (trace_b, rv.EM_NORMAL_TRACE_START_B)):
        assert len(trace.rows) == 13
        for row, (mu, sigma) in zip(trace.rows[1:], table):
            got_mu, got_sigma = row.params.reported()
            assert rounds_to(got_mu, mu), (row.s, got_mu, mu)
            assert rounds_to(got_sigma, sigma), (row.s, got_sigma, sigma)
    assert elapsed < 0.1
    ok(1, f"exact EM matches all 24 tabulated iterations from both starts "
          f"to 4 decimals in {elapsed * 1e3:.1f} ms")


def test_02_em_fixed_point_agrees_with_direct_maximization():
    sample = example_normal()
    em = fit_em(sample, em_config(tol=1e-12, max_iter=5000))
    direct = fit_direct(sample, FitConfig(Family.NORMAL, Algorithm.DIRECT))
    for a, b in zip(em.final.reported(), direct.final.reported()):
        assert abs(a - b) <= 1e-3
    assert rounds_to(em.final.reported()[0], rv.NORMAL_FIXED_POINT[0])
    assert rounds_to(em.final.reported()[1], rv.NORMAL_FIXED_POINT[1])
    ok(2, f"EM fixed point {tuple(round(v, 4) for v in em.final.reported())} "
          f"matches the direct maximizer within 1e-3 per parameter")


def test_03_simulated_em_normal_traces_within_monte_carlo_tolerance():
    sample = example_normal()
    t0 = time.perf_counter()
    traces = [
        fit_mcem(sample, FitConfig(Family.NORMAL, Algorithm.MCEM, start=start,
                                   k=50_000, max_iter=15))
        for start in (Normal(1.7, 0.004), Normal(0.0, 1.0))
    ]
    elapsed = time.perf_counter() - t0
    em = fit_em(sample, em_config(tol=1e-12, max_iter=5000))
    tables = (rv.MCEM_NORMAL_TRACE_START_A, rv.MCEM_NORMAL_TRACE_START_B)
    for trace, table in zip(traces, tables):
        for row, entry in zip(trace.rows[1:], table):
            for got, want in zip(row.params.reported(), entry):
                assert abs(got - want) <= 0.002, (row.s, got, want)
        for got, want in zip(trace.final.reported(), em.final.reported()):
            assert abs(got - want) <= 0.002
    assert elapsed < 10.0
    ok(3, f"simulated EM (K=50000) stays within 0.002 of all 60 tabulated "
          f"normal entries and of the EM fixed point in {elapsed:.2f} s")


def test_04_simulated_em_laplace_location_pinned_and_scale_converges():
    sample = example_laplace()
    t0 = time.perf_counter()
    trace = fit_mcem(sample, FitConfig(Family.LAPLACE, Algorithm.MCEM,
                                       start=Laplace(0.0, 1.0), k=50_000))
    elapsed = time.perf_counter() - t0
    for row in trace.rows[1:]:
        assert abs(row.params.mu - 49.7661) <= 1e-4
    assert abs(trace.rows[5].params.sigma - 4.6882) <= 0.02
    assert abs(trace.final.mu - rv.LAPLACE_MLE[0]) <= 0.02
    assert abs(trace.final.sigma - rv.LAPLACE_MLE[1]) <= 0.02
    assert elapsed < 5.0
    ok(4, f"simulated EM (K=50000) pins the Laplace location at 49.7661 every "
          f"iteration and lands within 0.02 of the MLE in {elapsed:.2f} s")


def test_05_simulated_em_rayleigh_converges_from_far_starts():
    sample = example_rayleigh()
    finals = {}
    traces = {}
    for b0 in (1.0, 100.0):
        trace = fit_mcem(sample, FitConfig(Family.RAYLEIGH, Algorithm.MCEM,
                                           start=Rayleigh(b0), k=50_000,
                                           max_iter=10))
        finals[b0] = trace.final.beta
        traces[b0] = [row.params.beta for row in trace.rows]
    for b0, final in finals.items():
        assert abs(final - rv.RAYLEIGH_MLE) <= 0.01, (b0, final)
    descent = traces[100.0][:8]
    assert all(a > b for a, b in zip(descent, descent[1:]))
    ok(5, f"simulated EM (K=50000) reaches {rv.RAYLEIGH_MLE} within 0.01 from "
          f"starts 1 and 100, descending monotonically through iteration 7")


def test_06_closed_form_rayleigh_mle_matches_direct_maximization():
    sample = example_rayleigh()
    closed = rayleigh_mle_closed_form(sample)
    # an independent maximization over log beta in [0, log 100]: fit_direct
    # returns the closed form itself
    res = minimize_scalar(lambda t: -observed_loglik(sample, Rayleigh(math.exp(t))),
                          bounds=(0.0, math.log(100.0)), method="bounded",
                          options={"xatol": 1e-12})
    assert abs(closed.beta - math.exp(res.x)) <= 1e-6
    assert abs(closed.beta - 6.134) <= 1e-3
    ok(6, f"closed-form Rayleigh MLE {closed.beta:.6f} matches a numerical "
          f"maximizer within 1e-6 and 6.134 within 1e-3")


def test_07_em_ascends_on_random_censored_datasets():
    rng = np.random.default_rng(20240814)
    fitted = 0
    while fitted < 200:
        n = int(rng.integers(5, 201))
        mu = float(rng.uniform(-10.0, 10.0))
        sigma = float(rng.uniform(0.1, 5.0))
        frac = float(rng.uniform(0.0, 0.8))
        x = rng.normal(mu, sigma, size=n)
        t = np.quantile(x, 1.0 - frac) if frac > 0.0 else math.inf
        w = np.minimum(x, t)
        delta = (x <= t).astype(int)
        if delta.sum() < 2 or np.var(w[delta == 1]) == 0.0:
            continue
        sample = CensoredSample(w, delta)
        trace = fit_em(sample, em_config(tol=1e-10, max_iter=3000))
        logliks = trace.logliks()
        assert np.all(np.diff(logliks) >= -1e-10)
        assert trace.converged
        assert loglik_gradient_norm(sample, trace.final) <= 1e-5
        fitted += 1
    ok(7, "EM log-likelihood is nondecreasing (slack 1e-10) and the converged "
          "gradient norm is at most 1e-5 on 200 random censored datasets")


def test_08_sampler_suite():
    # inverse-transform identity on the deterministic symmetric u-grid; the
    # at-or-above-location Laplace branch and the Rayleigh sampler invert the
    # conditional survival function, so they recover 1 - u
    for mu, sigma, lower in NORMAL_CASES:
        x = sample_truncated_normal(Normal.from_reported(mu, sigma), lower, U_GRID)
        assert np.max(np.abs(truncated_cdf_normal(mu, sigma, lower, x) - U_GRID)) <= 1e-8
    for mu, sigma, lower in LAPLACE_CASES:
        x = sample_truncated_laplace(Laplace(mu, sigma), lower, U_GRID)
        target = (1.0 - U_GRID) if lower >= mu else U_GRID
        assert np.max(np.abs(truncated_cdf_laplace(mu, sigma, lower, x) - target)) <= 1e-8
    for beta, lower in RAYLEIGH_CASES:
        x = sample_truncated_rayleigh(Rayleigh(beta), lower, U_GRID)
        assert np.max(np.abs(truncated_cdf_rayleigh(beta, lower, x) - (1.0 - U_GRID))) <= 1e-8

    # strict support on ten million draws per family
    big = 10_000_000
    u = RandomStream(81).uniforms(big)
    assert np.all(sample_truncated_normal(Normal(0.0, 1.0), 2.0, u) > 2.0)
    assert np.all(sample_truncated_laplace(Laplace(0.0, 1.0), -0.5, u) > -0.5)
    assert np.all(sample_truncated_rayleigh(Rayleigh(6.13), 10.627, u) > 10.627)
    del u

    # moments against numerical quadrature within four standard errors
    cases = [
        (stats.norm(1.7, 0.0632), sample_truncated_normal, Normal.from_reported(1.7, 0.0632),
         1.778),
        (stats.laplace(49.8, 4.7), sample_truncated_laplace, Laplace(49.8, 4.7), 54.94),
        (stats.laplace(0.0, 1.0), sample_truncated_laplace, Laplace(0.0, 1.0), -1.0),
        (stats.rayleigh(scale=6.13), sample_truncated_rayleigh, Rayleigh(6.13), 10.627),
    ]
    k = 200_000
    for ref, sampler, params, lower in cases:
        tail = ref.sf(lower)
        draws = sampler(params, lower, RandomStream(5).uniforms(k))
        for power in (1, 2):
            exact = quad(lambda x: x**power * ref.pdf(x) / tail,
                         lower, np.inf, limit=200)[0]
            se = np.std(draws**power, ddof=1) / math.sqrt(k)
            assert abs(np.mean(draws**power) - exact) <= 4.0 * se

    # the two below-location Laplace inversion formulas meet at u = split
    for r in (-5.0, -1.0, -0.1):
        er = math.exp(r)
        h = (1.0 - er) / (2.0 - er)
        below = math.log(2.0 * h + (1.0 - h) * er)
        above = -math.log(2.0 * (1.0 - h) - (1.0 - h) * er)
        assert abs(below - above) <= 1e-12
    ok(8, "all samplers pass inverse-transform, strict-support on 1e7 draws, "
          "4-SE quadrature moments, and Laplace branch agreement at the split")


def test_09_monte_carlo_moments_match_the_exact_e_step():
    sample = example_normal()
    params = Normal(1.7422, 0.0791**2)
    k = 1_000_000
    stream = RandomStream(2).substream(1)
    blocks = [
        sample_truncated_normal(params, float(bound), stream.substream(int(idx)).uniforms(k))
        for idx, bound in zip(sample.censored_indices, sample.censor_times)
    ]
    closed = e_step(sample, params)
    v1 = sum(float(b.sum()) for b in blocks)
    v2 = sum(float((b * b).sum()) for b in blocks)
    se1 = math.sqrt(sum(b.var(ddof=1) / k for b in blocks))
    se2 = math.sqrt(sum((b * b).var(ddof=1) / k for b in blocks))
    assert abs(v1 / k - closed.s1) <= 4.0 * se1
    assert abs(v2 / k - closed.s2) <= 4.0 * se2
    ok(9, f"Monte Carlo censored moments at K=1e6 match the closed-form "
          f"E-step within 4 standard errors")


def test_10_identical_config_and_seed_give_byte_identical_traces(tmp_path, capsys):
    cfg = FitConfig(Family.NORMAL, Algorithm.MCEM, start=Normal(0.0, 1.0),
                    k=20_000, max_iter=6, seed=99)
    first = fit_mcem(example_normal(), cfg).to_csv()
    second = fit_mcem(example_normal(), cfg).to_csv()
    assert first == second

    data = str(tmp_path / "ray.csv")
    from cemfit.censoring import write_censored_csv
    write_censored_csv(data, example_rayleigh())
    argv = ["fit", "--family", "rayleigh", "--data", data, "--k", "5000",
            "--max-iter", "5", "--seed", "7", "--start", "1"]
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path in paths:
        assert main(argv + ["--trace", path]) == 0
    capsys.readouterr()
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()
    ok(10, "repeated runs with identical config and seed produce byte-identical "
           "trace CSVs, in process and through the command line")
