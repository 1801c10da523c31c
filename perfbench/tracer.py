"""Spans and counters installed around mmsfair's public functions.

The program is not edited: install() rebinds each wrapped function in every
loaded mmsfair module that imported it, and wraps three hot methods on their
classes. Coarse calls get one span each (name, start, end, parent span,
operation id), kept in memory and written out when the run ends. The hot
per-call methods (AdditiveInstance.value, SubmodularValuation.value_mask,
Allocation.__init__) get an aggregate count and time instead, charged to
the enclosing span as child time, so that self times partition the wall
time of every traced CLI call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); the span name's first part is its layer.
SPANS = (
    ("mmsfair.cli", "main", "cli.main"),
    ("mmsfair.io", "parse_instance", "io.parse_instance"),
    ("mmsfair.io", "build_report", "io.build_report"),
    ("mmsfair.io", "report_to_json", "io.report_to_json"),
    ("mmsfair.ordering", "to_ordered", "ordering.to_ordered"),
    ("mmsfair.ordering", "lift_allocation", "ordering.lift_allocation"),
    ("mmsfair.envy_graph", "solve_additive", "envy_graph.solve_additive"),
    ("mmsfair.envy_graph", "envy_graph_allocate", "envy_graph.envy_graph_allocate"),
    ("mmsfair.envy_graph", "build_envy_graph", "envy_graph.build_envy_graph"),
    ("mmsfair.chores", "solve_chores", "chores.solve_chores"),
    ("mmsfair.chores", "chores_envy_graph_allocate", "chores.chores_envy_graph_allocate"),
    ("mmsfair.oracles", "mms_exact_additive", "oracles.mms_exact_additive"),
    ("mmsfair.oracles", "mms_exact_submodular", "oracles.mms_exact_submodular"),
    ("mmsfair.oracles", "mms_approx_submodular", "oracles.mms_approx_submodular"),
    ("mmsfair.oracles", "threshold_probe", "oracles.threshold_probe"),
    ("mmsfair.submodular.allocate", "alg_sub", "submodular.alg_sub"),
    ("mmsfair.submodular.allocate", "round_robin", "submodular.round_robin"),
)

# (module, class, method, aggregate name)
HOT = (
    ("mmsfair.model", "AdditiveInstance", "value", "model.value"),
    ("mmsfair.model", "Allocation", "__init__", "model.Allocation"),
    ("mmsfair.submodular.valuations", "SubmodularValuation", "value_mask",
     "submodular.valuations"),
)

LAYERS = ("cli", "io", "model", "ordering", "envy_graph", "chores", "oracles", "submodular")


# Counters read from public return values, keyed by span name; each hook
# gets (tracer, call arguments, return value).


def _count_parse(tracer: "Tracer", args, result) -> None:
    tracer.count["io.parse_instance.bytes"] += len(args[0])  # instance JSON is ASCII


def _count_report(tracer: "Tracer", args, result) -> None:
    for row in result.agents:
        tracer.count["io.build_report.agents"] += 1
        tracer.count["io.build_report.unproven"] += row.satisfied is None
        tracer.count["oracles.exact"] += row.mms_source == "exact"


def _count_run_trace(layer: str):
    def hook(tracer: "Tracer", args, result) -> None:
        steps = result[1].steps  # the RunTrace
        cycles = [len(c) for step in steps for c in step.cycles]
        tracer.count[f"{layer}.items"] += len(steps)
        tracer.count[f"{layer}.rotations"] += len(cycles)
        longest = f"{layer}.longest_cycle"
        tracer.count[longest] = max(tracer.count[longest], max(cycles, default=0))

    return hook


def _count_alg_sub(tracer: "Tracer", args, result) -> None:
    tracer.count["submodular.alg_sub.iterations"] += result[1].iterations  # ThresholdState


def _count_probe(tracer: "Tracer", args, result) -> None:
    tracer.count["oracles.threshold_probe.accepts"] += result is not None


AFTER = {
    "io.parse_instance": _count_parse,
    "io.build_report": _count_report,
    "envy_graph.envy_graph_allocate": _count_run_trace("envy_graph"),
    "chores.chores_envy_graph_allocate": _count_run_trace("chores"),
    "submodular.alg_sub": _count_alg_sub,
    "oracles.threshold_probe": _count_probe,
}


class Tracer:
    """Span log, self times and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        self.op = ""
        self._hot_depth = 0
        self._masks: dict[int, tuple[object, set]] = {}  # valuation id -> (it, masks)

    def span(self, name: str, fn, refusal: type):
        after = AFTER.get(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # id = number of spans opened before this one (closed or still open)
            rec = [len(self.spans) + len(stack), name, perf_counter(), 0.0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                self.count[f"{name}.refused"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - rec[2]
                self.self_s[name] += duration - rec[3]
                self.calls[name] += 1
                if parent is not None:
                    parent[3] += duration
                self.spans.append(
                    (rec[0], None if parent is None else parent[0], self.op, name, rec[2], end)
                )
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def hot(self, name: str, fn, track_masks: bool = False):
        stack = self.stack

        def wrapper(obj, *args):
            self.calls[name] += 1
            if track_masks:
                self._masks.setdefault(id(obj), (obj, set()))[1].add(args[0])
            if self._hot_depth:
                return fn(obj, *args)  # nested: timed by the outer call
            self._hot_depth += 1
            start = perf_counter()
            try:
                return fn(obj, *args)
            finally:
                duration = perf_counter() - start
                self._hot_depth -= 1
                self.self_s[name] += duration
                if stack:
                    stack[-1][3] += duration

        return wrapper

    def end_op(self) -> None:
        """Fold the distinct masks of this operation's valuations into the
        count; the valuation objects die with the operation."""
        self.count["submodular.valuations.distinct"] += sum(
            len(masks) for _, masks in self._masks.values()
        )
        self._masks.clear()

    def install(self) -> None:
        from mmsfair.errors import BudgetExceededError

        modules = [m for name, m in sys.modules.items() if name.startswith("mmsfair")]
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.span(name, original, BudgetExceededError)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in HOT:
            cls = getattr(sys.modules[module_name], cls_name)
            original = getattr(cls, method)
            setattr(cls, method, self.hot(name, original, method == "value_mask"))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "count": dict(self.count),
        }
