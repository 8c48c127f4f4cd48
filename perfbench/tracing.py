"""Per-layer tracing from outside the program: wrappers around public functions.

``Tracer.install()`` replaces each traced function with a wrapper in every
``codeplane`` module that binds it (``from .kernels import min_pairwise``
in ``search`` is a separate binding from ``kernels.min_pairwise``), and
each traced method on its defining class. Span wrappers record
(name, start, end, parent) in memory; counter wrappers only count, for
calls too small and too many to time one by one. ``uninstall()`` puts the
originals back.

Every counter starts at zero, so a wrapper that never fires reports 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# (module, attribute) of functions timed as spans
SPANS = (
    ("cli", "main"),
    ("svg", "PlaneSvg.render"),
    ("effective", "build_strip"),
    ("effective", "two_sided_approx"),
    ("enclosure", "log2_enclosure"),
    ("search", "exists_code"),
    ("search", "_best_linear"),
    ("linear", "min_weight"),
    ("kernels", "min_pairwise"),
    ("kernels", "all_at_least"),
    ("kernels", "hamming"),
    ("codes", "min_distance"),
    ("spoiling", "realize_point"),
)

# (module, attribute) of functions only counted
COUNTERS = (
    ("cli", "_write"),
    ("effective", "GraphBallDecider.decide"),
    ("effective", "DomainBallDecider.decide_closed"),
    ("effective", "DomainBallDecider.decide_open"),
    ("effective", "balls_closures_intersect"),
    ("bounds", "BoundCurve.eval"),
    ("bounds", "entropy"),
    ("enclosure", "log_enclosure"),
    ("fields", "FieldSpec.add"),
    ("fields", "FieldSpec.mul"),
    ("spoiling", "_lengthen_step"),
    ("spoiling", "_puncture_step"),
    ("spoiling", "_shorten_step"),
)

NAME, START, END, PARENT = range(4)

#: unit of every per-layer metric
UNITS = {
    "cli.ops": "count", "cli.self_s": "s", "cli.bytes_written": "bytes", "svg.render_s": "s",
    "effective.strip_s": "s", "effective.approx_s": "s", "effective.decider_calls": "count",
    "effective.decider_calls_per_N": "count/N", "effective.closure_tests": "count",
    "bounds.curve_evals": "count", "bounds.entropy_calls": "count", "bounds.memo_hit_ratio": "ratio",
    "enclosure.log_calls": "count", "enclosure.log2_calls": "count", "enclosure.log2_s": "s",
    "enclosure.log2_const_frac": "ratio", "search.exists_s": "s", "search.linear_s": "s",
    "search.nodes": "count", "search.nodes_per_s": "1/s", "search.unknown": "count",
    "fields.ops": "count", "linear.min_weight_s": "s", "kernels.min_pairwise_calls": "count",
    "kernels.min_pairwise_s": "s", "kernels.all_at_least_calls": "count",
    "kernels.all_at_least_s": "s", "kernels.hamming_calls": "count",
    "kernels.symbol_compares": "count", "kernels.compares_per_s": "1/s",
    "codes.min_distance_calls": "count", "codes.min_distance_s": "s", "spoiling.realize_s": "s",
    "spoiling.steps": "count", "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: alphabet size of the op being run, for telling constant log2 arguments
        self.q = 2
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn, observe=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if observe is not None:
                observe(args)
            return fn(*args, **kwargs)

        return wrapper

    # --- what each boundary records besides its span or count -----------------

    def _observers(self):
        counts = self.counts

        def exists(args, outcome):
            counts["search.nodes"] += outcome.nodes
            counts["search.unknown"] += outcome.status.value == "unknown"

        def grid(args, result):
            counts["effective.grid_n"] += result.n_grid

        def min_pairwise(args, result):
            m, n = args[1], args[2]
            counts["kernels.symbol_compares"] += m * (m - 1) // 2 * n

        def all_at_least(args, result):
            counts["kernels.symbol_compares"] += args[1] * args[2]

        def hamming(args, result):
            counts["kernels.symbol_compares"] += len(args[0])

        def write(args):
            counts["cli.bytes_written"] += len(args[1].encode("utf-8"))

        def curve_eval(args):
            curve, delta, precision = args
            if (Fraction(delta), precision) in curve._memo:
                counts["bounds.memo_hits"] += 1

        def log2(args, result):
            if args[0] in (self.q, self.q - 1):
                counts["enclosure.log2_const"] += 1

        return {
            "search.exists_code": exists,
            "search._best_linear": exists,
            "effective.build_strip": grid,
            "effective.two_sided_approx": grid,
            "kernels.min_pairwise": min_pairwise,
            "kernels.all_at_least": all_at_least,
            "kernels.hamming": hamming,
            "cli._write": write,
            "bounds.BoundCurve.eval": curve_eval,
            "enclosure.log2_enclosure": log2,
        }

    # --- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at each of its bindings."""
        package = importlib.import_module("codeplane")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "codeplane" or name.startswith("codeplane."))]
        observers = self._observers()
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for module_name, attr in table:
                name = f"{module_name}.{attr}"
                self.counts[name] = 0
                owner = importlib.import_module(f"{package.__name__}.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, make(name, original, observers.get(name)))
                    self.bindings.append(name)
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original, observers.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                            self.bindings.append(f"{module.__name__.split('.', 1)[-1]}.{key}")

    def _patch(self, owner, key: str, value):
        self._restore.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- results ---------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def busy_time(spans, name: str) -> float:
    """Total duration of the spans called ``name`` that have no ancestor of that name."""
    total = 0.0
    for index, span in enumerate(spans):
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics, named ``<module>.<metric>``."""
    c = counts
    t = {name: busy_time(spans, name) for name in {s[NAME] for s in spans}}
    t = Counter(t)
    selfs = self_times(spans)
    cli_self = sum(s for span, s in zip(spans, selfs) if span[NAME] == "cli.main")
    deciders = (c["effective.GraphBallDecider.decide"] + c["effective.DomainBallDecider.decide_closed"]
                + c["effective.DomainBallDecider.decide_open"])
    log2_calls = sum(1 for s in spans if s[NAME] == "enclosure.log2_enclosure")
    search_s = t["search.exists_code"] + t["search._best_linear"]
    kernel_s = t["kernels.min_pairwise"] + t["kernels.all_at_least"] + t["kernels.hamming"]
    calls = Counter(s[NAME] for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.ops": calls["cli.main"],
        "cli.self_s": cli_self,
        "cli.bytes_written": c["cli.bytes_written"],
        "svg.render_s": t["svg.PlaneSvg.render"],
        "effective.strip_s": t["effective.build_strip"],
        "effective.approx_s": t["effective.two_sided_approx"],
        "effective.decider_calls": deciders,
        "effective.decider_calls_per_N": ratio(deciders, c["effective.grid_n"]),
        "effective.closure_tests": c["effective.balls_closures_intersect"],
        "bounds.curve_evals": c["bounds.BoundCurve.eval"],
        "bounds.entropy_calls": c["bounds.entropy"],
        "bounds.memo_hit_ratio": ratio(c["bounds.memo_hits"], c["bounds.BoundCurve.eval"]),
        "enclosure.log_calls": c["enclosure.log_enclosure"],
        "enclosure.log2_calls": log2_calls,
        "enclosure.log2_s": t["enclosure.log2_enclosure"],
        "enclosure.log2_const_frac": ratio(c["enclosure.log2_const"], log2_calls),
        "search.exists_s": t["search.exists_code"],
        "search.linear_s": t["search._best_linear"],
        "search.nodes": c["search.nodes"],
        "search.nodes_per_s": ratio(c["search.nodes"], search_s),
        "search.unknown": c["search.unknown"],
        "fields.ops": c["fields.FieldSpec.add"] + c["fields.FieldSpec.mul"],
        "linear.min_weight_s": t["linear.min_weight"],
        "kernels.min_pairwise_calls": calls["kernels.min_pairwise"],
        "kernels.min_pairwise_s": t["kernels.min_pairwise"],
        "kernels.all_at_least_calls": calls["kernels.all_at_least"],
        "kernels.all_at_least_s": t["kernels.all_at_least"],
        "kernels.hamming_calls": calls["kernels.hamming"],
        "kernels.symbol_compares": c["kernels.symbol_compares"],
        "kernels.compares_per_s": ratio(c["kernels.symbol_compares"], kernel_s),
        "codes.min_distance_calls": calls["codes.min_distance"],
        "codes.min_distance_s": t["codes.min_distance"],
        "spoiling.realize_s": t["spoiling.realize_point"],
        "spoiling.steps": (c["spoiling._lengthen_step"] + c["spoiling._puncture_step"]
                           + c["spoiling._shorten_step"]),
    }
