"""Command line interface: fit, convert-type2, and simulate.

Exit codes: 0 on success, 2 when a fit reports ``converged`` False,
1 on any input or usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import fit
from .censoring import (
    CensoredSample,
    _read_text,
    ensure_fittable,
    from_type2,
    read_censored_csv,
    write_censored_csv,
)
from .distributions import Family, make_params
from .exceptions import DataError, ParameterError
from .fitting import DEFAULT_SEED, Algorithm, FitConfig, FitTrace
from .streams import RandomStream

# fit_direct, fit_em, fit_mcem: unused, patched by perfbench/tracing.py
from .direct import fit_direct
from .em import fit_em
from .mcem import fit_mcem


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cemfit",
                     description="Maximum-likelihood fitting of right-censored samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[], help="fit a family to a censored CSV sample")
    fit.add_argument("--family", required=True, choices=[f.value for f in Family])
    fit.add_argument("--algorithm", choices=[a.value for a in Algorithm], default=None,
                     help="default: em for the normal family, mcem otherwise")
    fit.add_argument("--data", required=True, help="CSV file with header 'w,delta'")
    fit.add_argument("--start", default=None,
                     help="comma-separated natural parameters "
                          "(normal: mu,sigma2; laplace: mu,sigma; rayleigh: beta)")
    fit.add_argument("--k", type=int, default=FitConfig.k,
                     help="Monte Carlo replicates per censored unit (default %(default)s)")
    fit.add_argument("--max-iter", type=int, default=None,
                     help="iteration budget (default 500 for em, 15 for mcem)")
    fit.add_argument("--tol", type=float, default=FitConfig.tol,
                     help="em only: stop when no parameter moves more than this times "
                          "sigma (default %(default)g)")
    fit.add_argument("--seed", type=int, default=FitConfig.seed)
    fit.add_argument("--trace", default=None, help="write the per-iteration trace CSV here")

    conv = sub.add_parser("convert-type2",
                          help="convert observed order statistics to a censored CSV sample")
    conv.add_argument("--values", required=True,
                      help="file with the observed order statistics, one per line, ascending")
    conv.add_argument("--total-n", required=True, type=int,
                      help="total number of units in the experiment")
    conv.add_argument("--output", default=None, help="output CSV path (default: stdout)")

    sim = sub.add_parser("simulate", help="draw a censored sample from a known model")
    sim.add_argument("--family", required=True, choices=[f.value for f in Family])
    sim.add_argument("--params", required=True,
                     help="comma-separated natural parameters of the generating model")
    sim.add_argument("--n", required=True, type=int)
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--type2-r", type=int, default=None,
                       help="observe the r smallest values, censor the rest")
    group.add_argument("--censor-time", type=float, default=None,
                       help="fixed right-censoring time (inf allowed)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--output", default=None, help="output CSV path (default: stdout)")
    return parser


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse parameter list {text!r}") from None


def _emit_sample(sample: CensoredSample, path: str | None) -> None:
    if path is None:
        sys.stdout.write(sample.to_csv())
    else:
        write_censored_csv(path, sample)


def _print_trace(trace: FitTrace) -> None:
    names = trace.header()
    print("  ".join(f"{name:>10}" for name in names))
    for row in trace.rows:
        values = (*row.params.reported(), row.loglik)
        print("  ".join([f"{row.s:>10d}"] + [f"{v:>10.4f}" for v in values]))


def _cmd_fit(args) -> int:
    family = Family(args.family)
    algorithm = (Algorithm(args.algorithm) if args.algorithm
                 else (Algorithm.EM if family is Family.NORMAL else Algorithm.MCEM))
    if args.trace:
        # refused before the fit, which may take minutes, and without creating the file
        if os.path.isdir(args.trace):
            raise ParameterError(f"--trace {args.trace!r} is a directory")
        if not os.path.isdir(os.path.dirname(args.trace) or "."):
            raise ParameterError(f"--trace {args.trace!r}: its directory does not exist")
    sample = read_censored_csv(args.data)
    ensure_fittable(sample, family)
    start = make_params(family, _parse_values(args.start)) if args.start else None
    config = FitConfig(family=family, algorithm=algorithm, start=start, k=args.k,
                       max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    print(f"family: {family}  algorithm: {algorithm}  data: {args.data} "
          f"(n={sample.n}, m={sample.m})")
    if algorithm is Algorithm.MCEM:
        print(f"k: {config.k}  max_iter: {config.resolved_max_iter()}  seed: {config.seed}")
    elif algorithm is Algorithm.EM:
        print(f"max_iter: {config.resolved_max_iter()}  tol: {config.tol:g}")

    t0 = time.perf_counter()
    trace = fit(sample, config)
    wall_time = time.perf_counter() - t0
    if trace.gradient_norm is None:
        _print_trace(trace)
    if args.trace:
        trace.write_csv(args.trace)

    final = trace.final
    summary = "  ".join(
        f"{name}={value:.4f}" for name, value in zip(final.param_names, final.reported())
    )
    extra = "" if trace.gradient_norm is None else f"  gradient norm: {trace.gradient_norm:.3e}"
    print(f"final: {summary}  loglik={trace.loglik:.4f}")
    print(f"iterations: {trace.iterations}{extra}  converged: {'yes' if trace.converged else 'no'}")
    print(f"wall time: {wall_time:.3f}s")
    return 0 if trace.converged else 2


def _cmd_convert_type2(args) -> int:
    values = []
    for lineno, line in enumerate(_read_text(args.values), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise DataError(f"{args.values}, line {lineno}: cannot parse value {token!r}") from None
    sample = from_type2(values, args.total_n)
    _emit_sample(sample, args.output)
    return 0


def _cmd_simulate(args) -> int:
    family = Family(args.family)
    params = make_params(family, _parse_values(args.params))
    if args.n < 1:
        raise ParameterError("n must be at least 1")
    stream = RandomStream(args.seed)
    draws = params.quantile(stream.uniforms(args.n))
    if args.type2_r is not None:
        if not 1 <= args.type2_r <= args.n:
            raise ParameterError(f"--type2-r must lie in 1..{args.n}, got {args.type2_r}")
        observed = sorted(float(x) for x in draws)[: args.type2_r]
        sample = from_type2(observed, args.n)
    else:
        cutoff = args.censor_time
        if family is Family.RAYLEIGH and cutoff <= 0.0:
            # every w would be <= 0, which fit refuses as a nonpositive observation
            raise ParameterError(f"--censor-time must be positive for rayleigh, got {cutoff}")
        if not cutoff > -math.inf:
            # nan, or -inf, which would censor every unit at w = -inf: fit refuses both
            raise ParameterError(f"--censor-time must be a finite number or inf, got {cutoff}")
        w = [min(float(x), cutoff) for x in draws]
        delta = [1 if float(x) <= cutoff else 0 for x in draws]
        sample = CensoredSample(w, delta)
    _emit_sample(sample, args.output)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "convert-type2": _cmd_convert_type2,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (DataError, ParameterError, OSError) as err:
        print(f"cemfit: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
