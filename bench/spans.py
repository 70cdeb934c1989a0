"""In-memory spans and counters around the calls into each etcsim layer.

The benchmark wraps public functions at the module attributes their
callers look up (``etcsim.sim.mat_exp``, ``etcsim.cli.run``, ...), so the
program itself carries no tracing code.  A span records its name, start,
end, parent span and run id; a layer's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

# (owner, attribute, span name or None for a counter-only hook, counter)
_HOOKS = (
    ("etcsim.cli", "load_scenario", "scenario.load", None),
    ("etcsim.cli", "check_admissibility", "sim.admissibility", None),
    ("etcsim.sim", "check_admissibility", "sim.admissibility", None),
    ("etcsim.cli", "run", "sim.run", "run_shape"),
    ("etcsim.triggers", "delay_floor", "triggers.delay_floor", None),
    ("etcsim.sim", "mat_exp", "linalg.mat_exp.sim", None),
    ("etcsim.triggers", "mat_exp", "linalg.mat_exp.triggers", None),
    ("etcsim.codec", "mat_exp", "linalg.mat_exp.codec", None),
    ("etcsim.capacity", "plan_window", "capacity.plan", None),
    ("etcsim.capacity", "linprog", "capacity.lp_solve", None),
    ("etcsim.cli", "write_trace_csv", "cli.write", "trace_rows"),
    ("etcsim.cli", "write_transmissions_csv", "cli.write", None),
    ("etcsim.sim:_Engine", "_segment_fire_index", "sim.scan", None),
    ("etcsim.sim", "perf_bound", None, "rule_points"),
)

# Work counters: equal on every run of one program on one seed.
COUNTERS = (
    "triggers.delay_floor_calls", "sim.admissibility_calls",
    "linalg.mat_exp_calls.triggers", "linalg.mat_exp_calls.sim",
    "linalg.mat_exp_calls.codec", "sim.scan_points", "sim.predicate_evals",
    "sim.scan_efficiency", "capacity.lp_solves", "cli.trace_rows",
)
TIMES = (
    "triggers.delay_floor_s", "sim.admissibility_s", "linalg.mat_exp_s",
    "capacity.plan_s", "cli.write_s", "scenario.load_s", "sim.run_s",
)


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.facts: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _traced(self, fn, name, kind):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [name, time.perf_counter(), None,
                        self._stack[-1] if self._stack else -1, self.run_id]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    span[2] = time.perf_counter()
            if kind is not None:
                self._count(kind, args, result)
            return result
        return traced

    def _count(self, kind: str, args, result) -> None:
        if kind == "run_shape":
            self.facts["horizon"], self.facts["scan_step"] = result.horizon, result.scan_step
        elif kind == "trace_rows":
            self.counts[kind] += int(args[0].t.size)
        elif kind == "rule_points":
            # The vectorised scan evaluates the rule on a whole grid segment;
            # every other evaluation is a scalar one (breakpoints, bisection).
            in_scan = bool(self._stack) and self.spans[self._stack[-1]][0] == "sim.scan"
            self.counts["scan_points" if in_scan else "predicate_evals"] += int(np.size(result))

    def install(self) -> None:
        """Wrap every hook point; a point the program no longer has is listed as missing."""
        for owner_path, attr, name, kind in _HOOKS:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._traced(fn, name, kind))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "facts": self.facts, "missing": self.missing}


def layer_metrics(dump: dict) -> dict:
    """Per-layer times and work counts of one traced call."""
    spans = dump["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    total, own, calls = Counter(), Counter(), Counter()
    for i, (name, *_rest) in enumerate(spans):
        total[name] += dur[i]
        own[name] += dur[i] - covered[i]
        calls[name] += 1
    counts, facts = dump["counts"], dump["facts"]
    scan_points = counts.get("scan_points", 0)
    grid = facts["horizon"] / facts["scan_step"] if "scan_step" in facts else 0.0
    tags = ("triggers", "sim", "codec")
    return {
        "triggers.delay_floor_s": total["triggers.delay_floor"],
        "triggers.delay_floor_calls": calls["triggers.delay_floor"],
        "sim.admissibility_s": total["sim.admissibility"],
        "sim.admissibility_calls": calls["sim.admissibility"],
        "linalg.mat_exp_s": sum(total[f"linalg.mat_exp.{t}"] for t in tags),
        **{f"linalg.mat_exp_calls.{t}": calls[f"linalg.mat_exp.{t}"] for t in tags},
        "sim.scan_points": scan_points,
        "sim.predicate_evals": counts.get("predicate_evals", 0),
        "sim.scan_efficiency": grid / scan_points if scan_points else 0.0,
        "capacity.plan_s": total["capacity.plan"],
        "capacity.lp_solves": calls["capacity.lp_solve"],
        "cli.write_s": total["cli.write"],
        "cli.trace_rows": counts.get("trace_rows", 0),
        "scenario.load_s": own["scenario.load"],
        "sim.run_s": own["sim.run"],
    }
