"""The benchmark's workloads: inputs made from the seed, and the fits run on them.

Every sample the benchmark generates is drawn with NumPy's own generator,
seeded by ``SeedSequence([seed, tag])``; cemfit receives only the CSV files.
The direct fits on ``units-normal`` and ``draws-deep`` run on samples of the
same make-up drawn from the constant ``FIXED_DATA_SEED``: whether
``fit_direct`` reports convergence on a sample of this size depends on the
sample (its score threshold is absolute), so only seed-independent inputs
give the same outcome on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import mle

FIXED_DATA_SEED = 2012
BUNDLED = {"normal": "normal_type2", "laplace": "laplace_type2", "rayleigh": "rayleigh_type2"}
DIRECT_FAULT = "fit_direct compares the absolute score norm with 1e-5; the norm grows with n"
DEEP_TAIL_FAULT = "moment start puts the censoring bound ~41 sd deep: em refuses > 38, mcem tail mass <= 1e-15"


@dataclass
class Sample:
    name: str
    family: str
    w: np.ndarray
    delta: np.ndarray
    csv: Path

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.delta == 0))


@dataclass
class Op:
    """One fit.  ``start`` holds natural parameters, as ``cemfit fit --start``
    takes them; ``k`` and ``max_iter`` only matter for mcem
    (``max_iter=None`` keeps cemfit's default of 15)."""

    sample: Sample
    route: str
    start: tuple | None = None
    k: int = 0
    max_iter: int | None = None
    seed: int = 0
    cli: bool = False
    fault: str | None = None
    label: str = field(init=False)

    def __post_init__(self):
        self.label = f"{self.sample.name}/{self.route}"


def natural(family: str, reported):
    """(mu, sigma) -> (mu, sigma^2) for the normal family; others unchanged."""
    return (reported[0], reported[1] ** 2) if family == "normal" else tuple(reported)


def reported(family: str, params):
    return (params[0], math.sqrt(params[1])) if family == "normal" else tuple(params)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _write(path: Path, w, delta) -> None:
    with open(path, "w") as fh:
        fh.write("w,delta\n")
        fh.writelines(f"{float(v)!r},{int(d)}\n" for v, d in zip(w, delta))


def _sample(name, family, w, delta, work: Path) -> Sample:
    w = np.asarray(w, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    path = work / f"{name}.csv"
    _write(path, w, delta)
    return Sample(name, family, w, delta, path)


def _read_bundled(name: str, family: str, root: Path) -> Sample:
    path = root / "src" / "cemfit" / "data" / f"{BUNDLED[family]}.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Sample(name, family, rows[:, 0], rows[:, 1].astype(np.int64), path)


def _type1_normal(seed, tag, n=20_000, mu=10.0, sigma=2.0):
    """Normal lifetimes, each censored at its own normal bound; ~30% censored."""
    rng = _rng(seed, tag)
    x = rng.normal(mu, sigma, n)
    bound = rng.normal(mu + 0.75 * sigma, sigma, n)
    return np.minimum(x, bound), (x <= bound).astype(np.int64)


def _fixed_time(x, time):
    return np.minimum(x, time), (x <= time).astype(np.int64)


def _rayleigh(seed, tag, n=2_000, beta=5.0):
    """Rayleigh lifetimes censored at the 75th percentile (~25% censored)."""
    return _fixed_time(_rng(seed, tag).rayleigh(beta, n), beta * math.sqrt(2.0 * math.log(4.0)))


def _laplace(seed, tag, n=2_000):
    """Laplace(0, 1) lifetimes censored at the 88th percentile (~12% censored)."""
    return _fixed_time(_rng(seed, tag).laplace(0.0, 1.0, n), math.log(0.5 / 0.12))


def build(workload: str, seed: int, work: Path, root: Path) -> list[Op]:
    """Write the workload's input files under ``work`` and return its fits.

    The mcem fits on generated samples start at the oracle's MLE: a short
    iteration budget then measures per-iteration cost, and the check sees
    Monte Carlo error only.
    """
    if workload == "units-normal":
        s = _sample("normal-type1", "normal", *_type1_normal(seed, 1), work)
        fixed = _sample("normal-type1-fixed", "normal", *_type1_normal(FIXED_DATA_SEED, 1), work)
        return [
            Op(s, "em"),
            Op(s, "mcem", start=natural("normal", mle("normal", s.w, s.delta)), k=10,
               max_iter=1, seed=seed),
            Op(fixed, "direct", fault=DIRECT_FAULT),
        ]
    if workload == "draws-deep":
        ops = []
        for tag, (name, family, make, k) in enumerate(
                [("rayleigh-fixed-time", "rayleigh", _rayleigh, 50_000),
                 ("laplace-fixed-time", "laplace", _laplace, 20_000)], start=2):
            s = _sample(name, family, *make(seed, tag), work)
            fixed = _sample(f"{name}-fixed", family, *make(FIXED_DATA_SEED, tag), work)
            ops.append(Op(s, "mcem", start=natural(family, mle(family, s.w, s.delta)), k=k,
                          max_iter=1, seed=seed))
            ops.append(Op(fixed, "direct", fault=DIRECT_FAULT))
        return ops
    if workload == "cli-bundled":
        normal = _read_bundled("bundled-normal", "normal", root)
        laplace = _read_bundled("bundled-laplace", "laplace", root)
        rayleigh = _read_bundled("bundled-rayleigh", "rayleigh", root)
        deep = _sample("deep-tail", "normal", [j / 50 for j in range(1, 50)] + [12.0],
                       [1] * 49 + [0], work)
        paper_a = (1.7, 0.004)
        k = 50_000
        return [
            Op(normal, "em", start=paper_a, cli=True),
            Op(normal, "mcem", start=paper_a, k=k, seed=seed, cli=True),
            Op(normal, "direct", cli=True),
            Op(laplace, "mcem", start=(0.0, 1.0), k=k, seed=seed, cli=True),
            Op(laplace, "direct", cli=True),
            Op(rayleigh, "mcem", start=(1.0,), k=k, seed=seed, cli=True),
            Op(rayleigh, "direct", cli=True),
            Op(deep, "em", cli=True, fault=DEEP_TAIL_FAULT),
            Op(deep, "mcem", k=k, seed=seed, cli=True, fault=DEEP_TAIL_FAULT),
            Op(deep, "direct", cli=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("units-normal", "draws-deep", "cli-bundled")
