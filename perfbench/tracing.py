"""Per-layer tracing for the --trace 1 run, from outside the program.

Each layer's public functions are wrapped while the traced pass runs.  A
wrapper replaces every attribute of a tropcalc module that holds the
function, so a name imported with ``from .model import interpret`` is
patched where it is looked up (cli, reduction and taylor import
`interpret`, taylor imports `sub_bags`).  Hot calls are counted; coarse
calls are recorded as spans [name, start, end, parent index], kept in
memory and written out by run.py.  Every ``*_s`` metric is the summed self
time of one span name: its duration minus the part its child spans cover.

`model.demand` spans are the outermost `TropMatrix.entry` demands, the lazy
kernels; the wrapper reads the matrix's memo table (`_cache`) to tell
computed entries from cache hits, and adds one frame per nested demand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from collections import Counter
from time import perf_counter

# span name -> per-layer metric (seconds of self time)
SPAN_METRICS = {
    "model.demand": "model.demand_s",
    "model.interpret": "model.interpret_s",
    "model.matrix_apply": "model.matrix_apply_s",
    "series.truncate": "series.truncate_s",
    "reduction.best_case": "reduction.best_case_s",
    "reduction.outcome_series": "reduction.outcome_series_s",
    "reduction.mle": "reduction.mle_s",
    "terms.parse": "terms.parse_s",
    "terms.typecheck": "terms.typecheck_s",
    "taylor.taylor_gap": "taylor.taylor_gap_s",
    "taylor.lipschitz": "taylor.lipschitz_s",
    "cli": "cli.self_s",
    "cli.serialize": "cli.serialize_s",
}

COUNT_METRICS = [
    "model.splits_enumerated",
    "model.bag_splits_calls",
    "model.sub_bags_calls",
    "model.entry_calls",
    "model.entries_computed",
    "series.tmin_calls",
    "series.tmul_calls",
    "series.eval_calls",
    "series.truncate_calls",
    "series.truncate_max_monomials",
    "reduction.step_calls",
    "terms.subst_calls",
    "taylor.expand_elements",
]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    # -------------------------------------------------------- wrappers

    def spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bag_splits(self, fn):
        counts = self.counts

        def bag_splits(bag, k):
            out = fn(bag, k)
            counts["model.bag_splits_calls"] += 1
            counts["model.splits_enumerated"] += len(out)
            return out

        return bag_splits

    def _entry(self, fn):
        counts = self.counts
        demand = self.spanned("model.demand", fn)
        depth = 0

        def entry(m, bag, b):
            nonlocal depth
            counts["model.entry_calls"] += 1
            if (bag, b) not in m._cache:
                counts["model.entries_computed"] += 1
            depth += 1
            try:
                return fn(m, bag, b) if depth > 1 else demand(m, bag, b)
            finally:
                depth -= 1

        return entry

    def _truncate(self, fn):
        counts = self.counts
        span = self.spanned("series.truncate", fn)

        def truncate(s, eps):
            counts["series.truncate_calls"] += 1
            counts["series.truncate_max_monomials"] = max(counts["series.truncate_max_monomials"], len(s.coeffs))
            return span(s, eps)

        return truncate

    def _taylor_expand(self, fn):
        counts = self.counts
        depth = 0

        def taylor_expand(term, degree_cap):
            nonlocal depth
            depth += 1
            try:
                out = fn(term, degree_cap)
            finally:
                depth -= 1
            if not depth:
                counts["taylor.expand_elements"] += len(out)
            return out

        return taylor_expand

    # ------------------------------------------------------ installing

    def _patch_function(self, fn, wrapper):
        """Replace fn in every tropcalc module that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tropcalc" or name.startswith("tropcalc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    @contextlib.contextmanager
    def installed(self):
        from tropcalc import cli, model, reduction, series, taylor, terms

        fns = [
            (model.bag_splits, self._bag_splits),
            (model.sub_bags, lambda f: self.counted("model.sub_bags_calls", f)),
            (model.interpret, lambda f: self.spanned("model.interpret", f)),
            (model.matrix_apply, lambda f: self.spanned("model.matrix_apply", f)),
            (reduction.step, lambda f: self.counted("reduction.step_calls", f)),
            (reduction.best_case, lambda f: self.spanned("reduction.best_case", f)),
            (reduction.outcome_series, lambda f: self.spanned("reduction.outcome_series", f)),
            (reduction.mle, lambda f: self.spanned("reduction.mle", f)),
            (terms.parse, lambda f: self.spanned("terms.parse", f)),
            (terms.subst, lambda f: self.counted("terms.subst_calls", f)),
            (taylor.taylor_gap, lambda f: self.spanned("taylor.taylor_gap", f)),
            (taylor.taylor_expand, self._taylor_expand),
            (taylor.lipschitz_estimate, lambda f: self.spanned("taylor.lipschitz", f)),
            (taylor.empirical_lipschitz, lambda f: self.spanned("taylor.lipschitz", f)),
            (cli.main, lambda f: self.spanned("cli", f)),
            (cli.emit, lambda f: self.spanned("cli.serialize", f)),
            (cli.matrix_to_json_dict, lambda f: self.spanned("cli.serialize", f)),
        ]
        fns += [
            (getattr(terms, name), lambda f: self.spanned("terms.typecheck", f))
            for name in ("typecheck", "typecheck_stlc", "typecheck_bstlc", "typecheck_stdlc", "typecheck_pcfl")
        ]
        try:
            for fn, make in fns:
                self._patch_function(fn, make(fn))
            self._patch_method(model.TropMatrix, "entry", self._entry)
            self._patch_method(series.TropSeries, "tmin", lambda f: self.counted("series.tmin_calls", f))
            self._patch_method(series.TropSeries, "tmul", lambda f: self.counted("series.tmul_calls", f))
            self._patch_method(series.TropSeries, "eval", lambda f: self.counted("series.eval_calls", f))
            self._patch_method(series.TropSeries, "truncate", self._truncate)
            yield self
        finally:
            for owner, attr, val in reversed(self._undo):
                setattr(owner, attr, val)
            self._undo.clear()

    def run_ops(self, ops, run_pass):
        """run_pass over the operations, each inside an "op" span."""
        return run_pass([dataclasses.replace(op, run=self.spanned("op", op.run)) for op in ops])

    # --------------------------------------------------------- metrics

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        selfs = self.self_times()
        out = {key: {"value": self.counts[key], "unit": "count"} for key in COUNT_METRICS}
        for name, key in SPAN_METRICS.items():
            out[key] = {"value": selfs[name], "unit": "s"}
        calls = self.counts["model.entry_calls"]
        hits = calls - self.counts["model.entries_computed"]
        out["model.entry_hit_ratio"] = {"value": hits / calls if calls else 0.0, "unit": "ratio"}
        out["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
        return out
