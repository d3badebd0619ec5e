"""The benchmark's traced run patches cemfit from outside; keep its hooks live.

``perfbench/tracing.py`` wraps functions at the names cemfit's callers look
up (``mcem._STEPS``, ``mcem.sample_truncated_*``, ``truncated.norm_ppf``,
``direct.loglik_gradient_norm`` ...).  A refactor that moves a call off one of those
names would leave the traced run silently blind, so this test runs one
bundled fit per route under the tracer and checks every hook fired.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import cemfit
import cemfit.cli
from cemfit.datasets import dataset_path, example_laplace, example_normal

from censored_samples import random_censoring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def count_draws(attr):
    """Wrap ``cemfit.mcem.<attr>`` (the traced sampler, once installed) to
    record the size of every array it returns; ``Tracer.uninstall`` later
    puts the original back over this wrapper."""
    sampler = getattr(cemfit.mcem, attr)
    sizes = []

    def counting(*args):
        z = sampler(*args)
        sizes.append(np.size(z))
        return z

    setattr(cemfit.mcem, attr, counting)
    return sizes


def test_traced_fits_hit_every_hook(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sizes = count_draws("sample_truncated_normal")
        normal = example_normal()
        cemfit.fit(normal, cemfit.FitConfig(cemfit.Family.NORMAL, cemfit.Algorithm.MCEM,
                                            k=200, max_iter=1))
        cemfit.fit(example_laplace(), cemfit.FitConfig(cemfit.Family.LAPLACE,
                                                       cemfit.Algorithm.DIRECT))
    finally:
        tracer.uninstall()
    seen = tracer.summarize()
    for name in ("mcem.step", "truncated.sample", "distributions.ppf", "streams.uniforms",
                 "direct.gradient", "censoring.loglik"):
        assert seen[name]["count"] > 0, name
    # the Laplace direct fit runs no simplex, so the spans that timed it stay empty
    for name in ("direct.search", "direct.objective"):
        assert seen[name]["count"] == 0, name
    # the traced sampler returned every draw of the single MCEM sweep
    n_draws = (normal.n - normal.m) * 200
    assert sum(sizes) == n_draws
    assert seen["streams.uniforms"]["qty"] == n_draws
    assert tracer.bound_violations == 0


def test_traced_small_k_sweep_sees_every_draw(tracing):
    # at K = 10 the words come from one vectorized Philox pass, not from
    # RandomStream.uniforms; the sampler hook must still see every draw
    sample = example_normal()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sizes = count_draws("sample_truncated_normal")
        cemfit.fit(sample, cemfit.FitConfig(cemfit.Family.NORMAL, cemfit.Algorithm.MCEM,
                                            k=10, max_iter=1))
    finally:
        tracer.uninstall()
    assert sum(sizes) == sample.censor_times.size * 10
    assert tracer.summarize()["mcem.accumulate"]["count"] > 0
    assert tracer.bound_violations == 0


def test_traced_laplace_mcem_checks_bounds_on_both_branches(tracing):
    # bounds on both sides of the location put rows of both sampler
    # branches into one chunk, and the tracer checks every draw of it
    sample = random_censoring()
    assert (sample.censor_times < 0.0).any() and (sample.censor_times >= 0.0).any()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sizes = count_draws("sample_truncated_laplace")
        cemfit.fit(sample, cemfit.FitConfig(cemfit.Family.LAPLACE, cemfit.Algorithm.MCEM,
                                            start=cemfit.Laplace(0.0, 1.0), k=37, max_iter=1))
    finally:
        tracer.uninstall()
    assert len(sizes) > 1
    assert sum(sizes) == sample.censor_times.size * 37
    assert tracer.summarize()["mcem.median"]["count"] == 1
    assert tracer.bound_violations == 0


def test_traced_em_and_laplace_mcem_hit_their_hooks(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cemfit.fit(example_normal(), cemfit.FitConfig(cemfit.Family.NORMAL, cemfit.Algorithm.EM))
        cemfit.fit(example_laplace(), cemfit.FitConfig(cemfit.Family.LAPLACE,
                                                       cemfit.Algorithm.MCEM, k=200, max_iter=1))
    finally:
        tracer.uninstall()
    seen = tracer.summarize()
    for name in ("em.e_step", "em.m_step", "fitting.default_start", "censoring.validate",
                 "mcem.accumulate", "mcem.median"):
        assert seen[name]["count"] > 0, name
    assert tracer.bound_violations == 0


@pytest.mark.parametrize("fit, counts", [
    ((example_normal, cemfit.FitConfig(cemfit.Family.NORMAL, cemfit.Algorithm.EM)),
     {"censoring.validate": 1, "fitting.default_start": 1, "censoring.loglik": 22,
      "em.e_step": 21}),
    ((example_laplace, cemfit.FitConfig(cemfit.Family.LAPLACE, cemfit.Algorithm.MCEM,
                                        k=200, max_iter=2)),
     {"censoring.validate": 1, "fitting.default_start": 1, "censoring.loglik": 3,
      "mcem.step": 2}),
], ids=["normal-em", "laplace-mcem"])
def test_each_route_fires_its_hooks_once_per_call(tracing, fit, counts):
    # exact counts per route: a sweep loop that calls a name the tracer does
    # not patch, or calls one twice, changes them (row 0 plus one loglik per sweep)
    data, config = fit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cemfit.fit(data(), config)
    finally:
        tracer.uninstall()
    seen = tracer.summarize()
    assert {name: seen[name]["count"] for name in counts} == counts


@pytest.mark.parametrize("family, route, counts", [
    ("normal", "em", {"em.fit": 1, "fitting.default_start": 1, "censoring.loglik": 22}),
    ("normal", "mcem", {"mcem.fit": 1, "fitting.default_start": 1, "censoring.loglik": 3}),
    ("normal", "direct", {"direct.fit": 1, "fitting.default_start": 1, "censoring.loglik": 6}),
    ("laplace", "mcem", {"mcem.fit": 1, "fitting.default_start": 1, "censoring.loglik": 3}),
    ("laplace", "direct", {"direct.fit": 1, "fitting.default_start": 0, "censoring.loglik": 1}),
    ("rayleigh", "mcem", {"mcem.fit": 1, "fitting.default_start": 1, "censoring.loglik": 3}),
    ("rayleigh", "direct", {"direct.fit": 1, "fitting.default_start": 0, "censoring.loglik": 1}),
])
def test_each_cli_fit_fires_its_hooks_once_per_call(tracing, capsys, family, route, counts):
    # the CLI reads the file once and validates the sample before the route
    # validates it again; its one route span must fire whichever name it calls
    argv = ["fit", "--family", family, "--algorithm", route,
            "--data", str(dataset_path(f"{family}_type2"))]
    if route == "mcem":
        argv += ["--k", "200", "--max-iter", "2"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cemfit.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    seen = tracer.summarize()
    # one route span, and none of the other two
    expected = {"em.fit": 0, "mcem.fit": 0, "direct.fit": 0,
                "censoring.read": 1, "censoring.validate": 2, **counts}
    assert {name: seen[name]["count"] for name in expected} == expected
