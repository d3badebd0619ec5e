"""Spans around cemfit's layers, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions at the names their
callers look up (for example ``cemfit.mcem.sample_truncated_normal``, the
``RandomStream`` methods, ``cemfit.direct.minimize``) with wrappers that
record a span: name, start, end, parent and an optional quantity.
``uninstall`` puts the originals back.  A span's layer is the text before
the first dot of its name; its self time is its duration minus its
children's.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

import cemfit
import cemfit.cli
import cemfit.direct
import cemfit.em
import cemfit.mcem
import cemfit.streams
import cemfit.truncated

# span record fields
NAME, START, END, PARENT, QTY = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.bound_violations = 0

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name, fn, qty=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if qty is not None:
                    self.spans[idx][QTY] = qty(*args, **kwargs)
                self.close(idx)
        return wrapper

    # -- installing --------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_fn(self, module, attr, name, qty=None):
        self._patch(module, attr, self.wrap(name, getattr(module, attr), qty))

    def _patch_method(self, cls, attr, name, qty=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__, qty)))
        else:
            self._patch(cls, attr, self.wrap(name, raw, qty))

    def _sampler(self, fn):
        """Truncated sampler span, then a child span that checks the draws."""
        traced = self.wrap("truncated.sample", fn)

        @functools.wraps(fn)
        def wrapper(*args):
            z = traced(*args)
            lower = args[-2]
            idx = self.open("bench.check_bounds")
            if not np.all(np.asarray(z) > lower):
                self.bound_violations += 1
            self.close(idx)
            return z
        return wrapper

    def _minimize(self, fn):
        """Search span; every objective evaluation inside it is a child span."""
        def wrapper(objective, x0, *args, **kwargs):
            return fn(self.wrap("direct.objective", objective), x0, *args, **kwargs)
        return self.wrap("direct.search", functools.wraps(fn)(wrapper))

    def install(self) -> None:
        for module in (cemfit, cemfit.cli):
            self._patch_fn(module, "fit_em", "em.fit")
            self._patch_fn(module, "fit_mcem", "mcem.fit")
            self._patch_fn(module, "fit_direct", "direct.fit")
        for module in (cemfit, cemfit.cli):
            self._patch_fn(module, "read_censored_csv", "censoring.read")
        for module in (cemfit.cli, cemfit.em, cemfit.mcem, cemfit.direct):
            self._patch_fn(module, "ensure_fittable", "censoring.validate")
        for module in (cemfit.em, cemfit.mcem, cemfit.direct):
            self._patch_fn(module, "observed_loglik", "censoring.loglik")
            self._patch_fn(module, "default_start", "fitting.default_start")
        self._patch_fn(cemfit.em, "e_step", "em.e_step")
        self._patch_fn(cemfit.em, "m_step", "em.m_step")

        steps = cemfit.mcem._STEPS
        def held(sample, params, k, stream):
            return sample.censor_times.size * k * 8

        for family, step in list(steps.items()):
            self._patches.append((steps, family, step))
            steps[family] = self.wrap("mcem.step", step, held)
        self._patch_fn(cemfit.mcem, "RandomStream", "streams.substream")
        self._patch_method(cemfit.streams.RandomStream, "substream", "streams.substream")
        self._patch_method(cemfit.streams.RandomStream, "uniforms", "streams.uniforms",
                           lambda stream, n: n)
        for attr in ("sample_truncated_normal", "sample_truncated_laplace",
                     "sample_truncated_rayleigh"):
            self._patch(cemfit.mcem, attr, self._sampler(getattr(cemfit.mcem, attr)))
        self._patch_fn(cemfit.truncated, "norm_ppf", "distributions.ppf")
        for cls in (cemfit.Normal, cemfit.Laplace, cemfit.Rayleigh):
            self._patch_method(cls, "logpdf", "distributions.logdens")
            self._patch_method(cls, "log_survival", "distributions.logdens")
        acc = cemfit.mcem.MonteCarloAccumulator
        self._patch_method(acc, "from_blocks", "mcem.accumulate")
        self._patch_method(acc, "abs_deviation", "mcem.accumulate")
        self._patch_fn(cemfit.mcem, "weighted_median", "mcem.median")
        self._patch(cemfit.direct, "minimize", self._minimize(cemfit.direct.minimize))
        self._patch_fn(cemfit.direct, "loglik_gradient_norm", "direct.gradient")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def summarize(self, first: int = 0, last: int | None = None) -> dict:
        """Totals per span name over spans[first:last]: count, duration, self, qty."""
        spans = self.spans[first:last]
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT] - first
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"count": 0, "dur": 0.0, "self": 0.0, "qty": 0, "qty_max": 0})
        top = 0.0
        for i, s in enumerate(spans):
            row = out[s[NAME]]
            row["count"] += 1
            row["dur"] += dur[i]
            row["self"] += dur[i] - child[i]
            row["qty"] += s[QTY]
            row["qty_max"] = max(row["qty_max"], s[QTY])
            if s[PARENT] < first:
                top += dur[i]
        out["<top>"]["dur"] = top
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,qty\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[QTY]}\n")


# Layers whose self time no named metric above already gives (the cli and
# truncated layers are cli.main_self_s and truncated.sample_s).
LAYERS = ("api", "bench", "censoring", "direct", "distributions", "em", "fitting",
          "mcem", "streams")


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one traced pass, from ``Tracer.summarize``."""
    def g(name, key="dur"):
        return t[name][key] if name in t else 0

    evals = g("direct.objective", "count")
    m = {
        "streams.substreams": (g("streams.substream", "count"), "count"),
        "streams.substream_s": (g("streams.substream"), "s"),
        "streams.uniforms": (g("streams.uniforms", "qty"), "count"),
        "streams.uniforms_s": (g("streams.uniforms"), "s"),
        "truncated.calls": (g("truncated.sample", "count"), "count"),
        "truncated.sample_s": (g("truncated.sample", "self"), "s"),
        "distributions.ppf_s": (g("distributions.ppf"), "s"),
        "distributions.logdens_s": (g("distributions.logdens"), "s"),
        "mcem.iterations": (g("mcem.step", "count"), "count"),
        "mcem.accumulate_s": (g("mcem.accumulate"), "s"),
        "mcem.median_s": (g("mcem.median"), "s"),
        "mcem.step_self_s": (g("mcem.step", "self"), "s"),
        "mcem.draws_held_mb": (g("mcem.step", "qty_max") / 1e6, "MB"),
        "censoring.loglik_calls": (g("censoring.loglik", "count"), "count"),
        "censoring.loglik_s": (g("censoring.loglik"), "s"),
        "censoring.validate_s": (g("censoring.validate"), "s"),
        "em.iterations": (g("em.e_step", "count"), "count"),
        "em.e_step_s": (g("em.e_step"), "s"),
        "em.m_step_s": (g("em.m_step"), "s"),
        "direct.starts": (g("direct.search", "count"), "count"),
        "direct.evals": (evals, "count"),
        "direct.eval_us": (g("direct.objective") / evals * 1e6 if evals else 0.0, "us"),
        "direct.search_s": (g("direct.search"), "s"),
        "direct.gradient_s": (g("direct.gradient"), "s"),
        "direct.canonicalize_s": (g("direct.fit") - g("direct.search") - g("direct.gradient"), "s"),
        "cli.main_self_s": (g("cli.main", "self"), "s"),
    }
    for layer in LAYERS:
        total = sum(row["self"] for name, row in t.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (total, "s")
    return m
