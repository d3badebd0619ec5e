"""The benchmark's traced run patches cemfit from outside; keep its hooks live.

``perfbench/tracing.py`` wraps functions at the names cemfit's callers look
up (``mcem._STEPS``, ``mcem.sample_truncated_*``, ``truncated.norm_ppf``,
``direct.minimize`` ...).  A refactor that moves a call off one of those
names would leave the traced run silently blind, so this test runs one
bundled fit per route under the tracer and checks every hook fired.
"""

import sys
from pathlib import Path

import pytest

import cemfit
from cemfit.datasets import example_laplace, example_normal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_fits_hit_every_hook(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        normal = example_normal()
        cemfit.fit(normal, cemfit.FitConfig(cemfit.Family.NORMAL, cemfit.Algorithm.MCEM,
                                            k=200, max_iter=1))
        cemfit.fit(example_laplace(), cemfit.FitConfig(cemfit.Family.LAPLACE,
                                                       cemfit.Algorithm.DIRECT))
    finally:
        tracer.uninstall()
    seen = tracer.summarize()
    for name in ("mcem.step", "truncated.sample", "distributions.ppf", "streams.uniforms",
                 "direct.search", "direct.objective", "censoring.loglik"):
        assert seen[name]["count"] > 0, name
    # one sampler call per censored unit of the single MCEM sweep
    assert seen["truncated.sample"]["count"] == normal.n - normal.m
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
