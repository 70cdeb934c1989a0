"""Benchmark: cold ``etcsim simulate`` on one workload, one call at a time.

    python3 bench/run.py --workload {sec6,clear60,jordan} --seed N \
        --seconds S --trace {0,1}

A closed loop with one caller: each call is a fresh interpreter
(``child.py``) that imports ``etcsim.cli`` from ``src/`` and runs
``etcsim simulate`` on the workload's generated scenario.  Every call's
outputs are checked.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
traced and untraced calls alternate and it holds the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import scenarios
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
IMPORT_SAMPLES = 2   # import-only interpreters per run, on top of one per call
MIN_CALLS = 4        # untraced calls per run, whatever --seconds says
RUN_LIMIT_S = 160.0  # stop starting calls past this, to end within 180 s
REFERENCE_S = 0.25   # reference_s() on the machine the reported times are scaled to


def reference_s() -> float:
    """Wall time of a fixed kernel that does no etcsim work: the machine's current speed.

    Small-matrix products in a Python loop stand in for the exponentials,
    and a quadratic form over a 3.2 MB array for the vectorised scan.
    """
    start = time.perf_counter()
    M = np.array([[0.1, 0.2, 0.0, 0.1], [0.0, 0.1, 0.3, 0.0],
                  [0.2, 0.0, 0.1, 0.1], [0.0, 0.1, 0.0, 0.2]])
    acc = np.eye(4)
    for k in range(1, 15001):
        acc = acc @ M / k + np.eye(4)  # stays bounded: ||M|| < 1
    big = np.linspace(0.0, 1.0, 400_000).reshape(-1, 4)
    for _ in range(20):
        np.einsum("ni,ij,nj->n", big, M, big)
    return time.perf_counter() - start


class Run:
    """Spawns the calls of one benchmark run and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        from etcsim.scenario import load_scenario

        self.work = work
        self.scenario = scenarios.write_scenario(workload, seed, ROOT, work)
        scenario, doc = load_scenario(self.scenario)
        self.schedule = scenario.schedule
        stem = self.scenario.stem
        output = doc["sim"].get("output", {})
        self.outputs = {key: output.get(key, f"{stem}_{suffix}") for key, suffix in
                        (("trace_csv", "trace.csv"), ("transmissions_csv", "transmissions.csv"),
                         ("stats_json", "stats.json"))}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spawned = 0
        self.calls = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.reference_s: list[float] = []
        self.simulated: dict | None = None

    def spawn(self, simulate: bool, trace: bool = False, timeout: float = 150.0) -> dict | None:
        """One child interpreter; its result, or None if it did not finish cleanly."""
        self.spawned += 1
        call_dir = self.work / f"call{self.spawned}"
        call_dir.mkdir()
        result_path = call_dir / "result.json"
        cmd = [sys.executable, str(CHILD), str(ROOT), str(result_path)]
        if simulate:
            self.calls += 1
            cmd += [str(self.scenario), str(call_dir / "out"), str(self.calls), str(int(trace))]
        self.reference_s.append(reference_s())
        with (call_dir / "log.txt").open("w") as log:
            start = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                proc = None
        self.reference_s.append(reference_s())
        if proc is None or proc.returncode != 0 or not result_path.is_file():
            tail = (call_dir / "log.txt").read_text()[-2000:]
            print(f"call {call_dir.name} failed:\n{tail}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        self.setup_s.append(result["imported"] - start)
        result["dir"] = call_dir / "out"
        return result

    def simulate(self, trace: bool, deadline: float) -> dict | None:
        """One checked ``etcsim simulate`` call; None (and counted failed) if wrong."""
        result = self.spawn(True, trace, max(1.0, deadline - time.monotonic()))
        if result is None or not self._outputs_ok(result["dir"]):
            self.failed += 1
            return None
        return result

    def _outputs_ok(self, out: Path) -> bool:
        from etcsim.channel import TransmissionRecord, validate_sequence
        from etcsim.errors import EtcsimError

        try:
            stats = json.loads((out / self.outputs["stats_json"]).read_text())
            with (out / self.outputs["transmissions_csv"]).open(newline="") as fh:
                records = [TransmissionRecord(t_k=float(r["tk"]), p_k=int(r["pk"]),
                                              r_k=float(r["rk"]), r_tilde_k=float(r["rtk"]))
                           for r in csv.DictReader(fh)]
            with (out / self.outputs["trace_csv"]).open() as fh:
                rows = sum(1 for _ in fh) - 1
            simulated = {"transmission_count": stats["transmission_count"],
                         "total_bits": stats["total_bits"], "trace_rows": rows}
        except (OSError, ValueError, KeyError) as exc:
            print(f"check failed: unreadable output: {exc!r}", file=sys.stderr)
            return False
        problems = []
        if not float(stats["max_h_pf"]) <= 1.0:
            problems.append(f"max_h_pf = {stats['max_h_pf']} > 1")
        if not float(stats["min_de_margin"]) >= 0.0:
            problems.append(f"min_de_margin = {stats['min_de_margin']} < 0")
        try:
            validate_sequence(records, self.schedule)
        except EtcsimError as exc:
            problems.append(f"transmissions do not validate: {exc}")
        if self.simulated is None:
            self.simulated = simulated
        elif simulated != self.simulated:
            problems.append(f"outputs differ between calls: {simulated} vs {self.simulated}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _describe(name: str, values, unit: str) -> str:
    """Median with the sample count; no tail percentile has ten samples beyond it here."""
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {_median(values):.6g} {unit} (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def measure(run: Run, seconds: float, trace: bool, started: float) -> dict:
    """Call etcsim until ``seconds`` have passed; return the metrics of the run."""
    run.spawn(False)  # compile the bytecode caches before anything is timed
    run.setup_s.clear()
    run.reference_s.clear()
    for _ in range(IMPORT_SAMPLES):
        run.spawn(False)
    hard_stop = started + RUN_LIMIT_S
    loop_start = time.monotonic()
    untraced, traced = [], []
    rounds = 0
    while True:
        result = run.simulate(False, hard_stop)
        if result is not None:
            untraced.append(result)
        if trace:
            result = run.simulate(True, hard_stop)
            if result is not None:
                traced.append((result, json.loads((result["dir"] / "spans.json").read_text())))
        rounds += 1
        elapsed = time.monotonic() - loop_start
        per_round = elapsed / rounds
        if time.monotonic() + per_round > hard_stop:
            break
        if elapsed + per_round > seconds and rounds >= (1 if trace else MIN_CALLS):
            break

    simulate_s = [r["simulate_s"] for r in untraced]
    rss_mb = [r["peak_rss_kb"] / 1024.0 for r in untraced]
    # The machine flips between a fast and a slow state within seconds, so a
    # 0.2 s probe reads one state or the other: their mean tracks the share
    # of time spent in each, where a median would pick the majority state.
    speed = REFERENCE_S / statistics.fmean(run.reference_s)
    print(_describe("simulate_s (unscaled)", simulate_s, "s"))
    print(_describe("setup_s (unscaled)", run.setup_s, "s"))
    print(_describe("reference_s", run.reference_s, "s")
          + f"; mean {statistics.fmean(run.reference_s):.6g} s, times scaled by {speed:.6g}")
    print(_describe("peak_rss_mb", rss_mb, "MiB"))
    print(f"error_rate: {run.failed / max(1, run.calls):.6g} ({run.failed} of {run.calls} calls failed)")
    print(f"simulated: {json.dumps(run.simulated)}")
    if not trace:
        return {"simulate_s": {"value": _median(simulate_s) * speed, "unit": "s"},
                "setup_s": {"value": _median(run.setup_s) * speed, "unit": "s"},
                "peak_rss_mb": {"value": _median(rss_mb), "unit": "MiB"}}

    missing = sorted({m for _, dump in traced for m in dump["missing"]})
    if missing:
        print(f"warning: hook points not found, their metrics read 0: {missing}", file=sys.stderr)
    per_call = [spans.layer_metrics(dump) for _, dump in traced]
    metrics = {}
    for name in spans.COUNTERS + spans.TIMES:
        unit = "s" if name in spans.TIMES else ("ratio" if name == "sim.scan_efficiency"
                                                 else "count")
        metrics[name] = {"value": _median([m[name] for m in per_call]), "unit": unit}
    overhead = _median([r["simulate_s"] for r, _ in traced]) - _median(simulate_s)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    needed = [ROOT / "src" / "etcsim" / "cli.py", ROOT / "scenarios" / "sec6.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"cannot benchmark: {', '.join(absent)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        run = Run(args.workload, args.seed, work)
        print(f"workload {args.workload}, seed {args.seed}: x0 rotated by "
              f"{scenarios.rotation_deg(args.seed):+.6f} deg")
        metrics = measure(run, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0 and run.calls > 0, "attempted": run.calls,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
