#!/usr/bin/env python3
"""cemfit benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload units-normal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cemfit is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from spans recorded around cemfit's layers (see ``tracing.py``).  See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

import os

# At most one BLAS/OpenMP thread: timings then do not depend on how busy
# the machine's other cores are.  Must precede the NumPy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_SPAWNS = 3
IMPORTTIME_SPAWNS = 3
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cemfit, cemfit.cli
t1 = time.perf_counter()
for path in sys.argv[2:]:
    cemfit.read_censored_csv(path)
print(t1 - t0)
"""
IMPORT_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import cemfit, cemfit.cli"

# Tolerances of the checks, in units of the sample's MLE scale parameter.
EXACT_TOL = 1e-6        # em and direct against the MLE
REFERENCE_TOL = 5e-5    # bundled EM trace against its 4-decimal published values
LOGLIK_RTOL = 1e-9      # reported log-likelihood and EM ascent, relative
MC_Z = 6.0              # mcem: standard deviations of its Monte Carlo error


def load_cemfit():
    if not (SRC / "cemfit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cemfit package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cemfit
    import cemfit.cli
    if Path(cemfit.__file__).resolve().parent != SRC / "cemfit":
        sys.exit(f"perfbench: imported cemfit from {cemfit.__file__}, not from {SRC}")
    return cemfit


@dataclass
class Outcome:
    seconds: float
    failed: bool
    final: tuple | None = None      # reported parameters of the result
    rows: list | None = None        # (params..., loglik) per trace row
    iterations: int = 0
    fingerprint: bytes = b""        # trace CSV (or argmax) for the identity check
    error: str = ""


class Runner:
    def __init__(self, cemfit, ops, work: Path):
        self.cemfit = cemfit
        self.ops = ops
        self.work = work
        self.tracer = None
        self.samples = {}

    def read_samples(self):
        for op in self.ops:
            if not op.cli and op.sample.name not in self.samples:
                self.samples[op.sample.name] = self.cemfit.read_censored_csv(op.sample.csv)

    def run_pass(self):
        t0 = perf_counter()
        outcomes = [self._cli(op) if op.cli else self._library(op) for op in self.ops]
        return perf_counter() - t0, outcomes

    def _library(self, op) -> Outcome:
        cf = self.cemfit
        family = cf.Family(op.sample.family)
        start = cf.make_params(family, op.start) if op.start else None
        config = cf.FitConfig(family, cf.Algorithm(op.route), start=start, k=op.k or 50_000,
                              max_iter=op.max_iter, seed=op.seed)
        sample = self.samples[op.sample.name]
        t0 = perf_counter()
        try:
            if self.tracer:
                result = self.tracer.call("api.fit", cf.fit, sample, config)
            else:
                result = cf.fit(sample, config)
        except Exception as err:  # a fit that raises is a failed operation
            return Outcome(perf_counter() - t0, True, error=f"{type(err).__name__}: {err}")
        seconds = perf_counter() - t0
        if isinstance(result, cf.FitTrace):
            rows = [(*r.params.reported(), r.loglik) for r in result.rows]
            return Outcome(seconds, not result.converged, rows[-1][:-1], rows,
                           result.iterations, result.to_csv().encode())
        final = tuple(float(v) for v in result.argmax.reported())
        return Outcome(seconds, not result.converged, final, None, result.iterations,
                       repr((final, result.loglik)).encode(),
                       "" if result.converged else f"not converged, score norm {result.gradient_norm:.3g}")

    def _cli(self, op) -> Outcome:
        trace = self.work / f"trace-{op.sample.name}-{op.route}.csv"
        argv = ["fit", "--family", op.sample.family, "--algorithm", op.route,
                "--data", str(op.sample.csv), "--trace", str(trace)]
        if op.start:
            argv += ["--start", ",".join(repr(float(v)) for v in op.start)]
        if op.route == "mcem":
            argv += ["--k", str(op.k), "--seed", str(op.seed)]
        trace.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer:
                    code = self.tracer.call("cli.main", self.cemfit.cli.main, argv)
                else:
                    code = self.cemfit.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        seconds = perf_counter() - t0
        if not trace.exists():
            return Outcome(seconds, True, error=f"exit {code}: {err.getvalue().strip()}")
        data = trace.read_bytes()
        rows = [tuple(float(c) for c in line.split(",")) for line in data.decode().split("\n")[1:] if line]
        return Outcome(seconds, code != 0, rows[-1][1:-1], [r[1:] for r in rows], int(rows[-1][0]),
                       data, "" if code == 0 else f"exit {code}")


def pass_metrics(ops, wall, outcomes) -> dict:
    mcem = [(op, o) for op, o in zip(ops, outcomes) if op.route == "mcem"]
    draws = sum(op.sample.n_censored * op.k * o.iterations for op, o in mcem if not o.failed)
    draw_time = sum(o.seconds for op, o in mcem if not o.failed)
    return {
        "fit_s": wall,
        "mcem_s": sum(o.seconds for _, o in mcem),
        "direct_s": sum(o.seconds for op, o in zip(ops, outcomes) if op.route == "direct"),
        "draws_per_s": draws / draw_time if draw_time else 0.0,
    }


def median_of(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def timed_passes(runner, seconds: float) -> list:
    passes, t0 = [], perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(runner.run_pass())
    return passes


# -- set-up in fresh interpreters -----------------------------------------------

def spawn(args) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    wall = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return wall, proc


def measure_setup(csvs) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports cemfit and reads
    the inputs, and median in-process import time.  The median also drops the
    one slow spawn of a fresh checkout, which writes the bytecode cache."""
    walls, imports = [], []
    for _ in range(SETUP_SPAWNS):
        wall, proc = spawn(["-c", SETUP_CHILD, str(SRC), *map(str, csvs)])
        walls.append(wall)
        imports.append(float(proc.stdout))
    return statistics.median(walls), statistics.median(imports)


def scipy_optimize_import_s() -> float:
    """Cumulative import time of scipy.optimize under ``python -X importtime``."""
    values = []
    for _ in range(IMPORTTIME_SPAWNS):
        _, proc = spawn(["-X", "importtime", "-c", IMPORT_CHILD, str(SRC)])
        micros = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and line.split("|")[-1].strip() == "scipy.optimize"]
        values.append(micros[0] / 1e6 if micros else 0.0)
    return statistics.median(values)


# -- checks -------------------------------------------------------------------

def load_reference():
    spec = importlib.util.spec_from_file_location("reference_values", ROOT / "tests" / "reference_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(ops, passes, problems: list) -> None:
    """Independent checks of every fit that produced a result."""
    mles = {}
    for i, op in enumerate(ops):
        if len({outcomes[i].fingerprint for _, outcomes in passes}) > 1:
            problems.append(f"{op.label}: output differs between passes of one run")
        out = passes[0][1][i]
        if out.final is None:
            continue
        s, fam = op.sample, op.sample.family
        if s.name not in mles:
            mles[s.name] = oracle.mle(fam, s.w, s.delta)
        mle = mles[s.name]
        scale = mle[-1]
        if op.route == "mcem":
            start = (workloads.reported(fam, op.start) if op.start else out.rows[0][:-1])
            half = oracle.mcem_band(fam, s.w, s.delta, start, op.k, out.iterations, MC_Z)
        else:
            half = [EXACT_TOL * scale] * len(mle)
        for j, (got, want) in enumerate(zip(out.final, mle)):
            lo = hi = want
            if fam == "laplace" and j == 0:
                lo, hi = oracle.laplace_segment(s.w, s.delta)
            if not lo - half[j] <= got <= hi + half[j]:
                problems.append(f"{op.label}: parameter {j} = {got!r}, MLE {want!r} +- {half[j]:.3g}")
        for row in out.rows or []:
            mine = oracle.loglik(fam, s.w, s.delta, row[:-1])
            if abs(row[-1] - mine) > LOGLIK_RTOL * (1.0 + abs(mine)):
                problems.append(f"{op.label}: reported loglik {row[-1]!r}, recomputed {mine!r}")
                break
        if op.route == "em":
            ll = [oracle.loglik(fam, s.w, s.delta, row[:-1]) for row in out.rows]
            if any(b < a - LOGLIK_RTOL * (1.0 + abs(a)) for a, b in zip(ll, ll[1:])):
                problems.append(f"{op.label}: EM log-likelihood decreased")
        if op.label == "bundled-normal/em":
            published = load_reference().EM_NORMAL_TRACE_START_A
            got = [row[:2] for row in out.rows[1:1 + len(published)]]
            if len(got) < len(published) or any(
                    abs(a - b) > REFERENCE_TOL for g, p in zip(got, published) for a, b in zip(g, p)):
                problems.append(f"{op.label}: trace differs from the published EM trace")


# -- the two kinds of run ------------------------------------------------------

def end_to_end_run(runner, seconds, setup_s):
    """Untimed first pass under tracemalloc (it also warms caches), then
    timed passes for ``seconds``; medians over the timed passes."""
    tracemalloc.start()
    first = runner.run_pass()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    passes = timed_passes(runner, seconds)
    e2e = median_of([pass_metrics(runner.ops, wall, outcomes) for wall, outcomes in passes])
    metrics = {
        "setup_s": (setup_s, "s"),
        "fit_s": (e2e["fit_s"], "s"),
        "mcem_s": (e2e["mcem_s"], "s"),
        "direct_s": (e2e["direct_s"], "s"),
        "draws_per_s": (e2e["draws_per_s"], "1/s"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    return [first, *passes], metrics, []


def traced_run(runner, seconds, csvs, import_s, spans_path):
    """Untimed first pass, untraced passes for half of ``seconds``, then
    traced passes for the other half; per-layer medians over traced passes."""
    import tracing

    first = runner.run_pass()
    untraced = timed_passes(runner, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path in csvs:
            runner.cemfit.read_censored_csv(path)
        read_s = tracer.summarize()["censoring.read"]["dur"]
        runner.tracer = tracer
        traced, per_pass, t0 = [], [], perf_counter()
        while not traced or perf_counter() - t0 < seconds / 2:
            mark = len(tracer.spans)
            traced.append(runner.run_pass())
            summary = tracer.summarize(mark)
            layer = tracing.layer_metrics(summary)
            layer["trace.accounted_share"] = (summary["<top>"]["dur"] / traced[-1][0], "ratio")
            per_pass.append(layer)
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.write(spans_path)
    problems = []
    if tracer.bound_violations:
        problems.append(f"{tracer.bound_violations} sampler calls returned a draw at or below its bound")
    traced_fit = statistics.median(wall for wall, _ in traced)
    untraced_fit = statistics.median(wall for wall, _ in untraced)
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics.update({
        "censoring.read_s": (read_s, "s"),
        "setup.import_s": (import_s, "s"),
        "setup.scipy_optimize_import_s": (scipy_optimize_import_s(), "s"),
        "trace.fit_s": (traced_fit, "s"),
        "trace.overhead_s": (traced_fit - untraced_fit, "s"),
    })
    return [first, *untraced, *traced], metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run: no migrations between passes
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cemfit = load_cemfit()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, work, ROOT)
        csvs = list(dict.fromkeys(op.sample.csv for op in ops))
        setup_s, import_s = measure_setup(csvs)
        runner = Runner(cemfit, ops, work)
        runner.read_samples()
        if args.trace:
            passes, metrics, problems = traced_run(runner, args.seconds, csvs, import_s,
                                                   OUT / f"spans-{args.workload}.csv")
        else:
            passes, metrics, problems = end_to_end_run(runner, args.seconds, setup_s)
        check(ops, passes, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = 0
    for i, op in enumerate(ops):
        fails = sum(outcomes[i].failed for _, outcomes in passes)
        failed += fails
        if fails:
            print(f"{args.workload} {op.label}: failed {fails}/{len(passes)} ({passes[0][1][i].error})"
                  + (f" [known fault: {op.fault}]" if op.fault else " [UNEXPECTED]"))
        elif op.fault:
            print(f"{args.workload} {op.label}: known fault did not show ({op.fault})")
    attempted = len(ops) * len(passes)
    print(f"{args.workload}: attempted {attempted}, failed {failed}, passes {len(passes)}")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
