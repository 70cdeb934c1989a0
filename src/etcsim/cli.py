"""Command-line interface: simulate, capacity, triggers, constants.

``capacity`` prints the capacity plans a run reads: for each slot that
starts before the horizon with a blackout ahead, its window [slot start,
blackout start), the plan's kind (``lp_floor`` or ``fallback``), its value
in bits and its per-slot allocation ``phi``.

Exit codes: 0 success, 2 schema or configuration problem, 3 failed
admissibility, 4 objective violation during a run, 5 theorem-guarantee
breach; an error's code is its class's ``exit_code`` (see ``errors``).
A run that ends in exit 4 or 5 still writes its three files, with the
rows and transmissions recorded before the breach.
``simulate`` accepts a scenario file or a directory of scenario files,
run one after another; a scenario ``<stem>.json`` writes
``<stem>_trace.csv``, ``<stem>_transmissions.csv`` and ``<stem>_stats.json``
to ``--out-dir`` (default: the scenario's directory).  A directory's
``<stem>_stats.json`` next to its ``<stem>.json`` is that run's output,
not a scenario, and is not run.  Every run setting
is a scenario field; the command line only picks files, the output
directory and ``--force``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .capacity import slot_plans
from .errors import AdmissibilityError, EtcsimError
from .scenario import load_scenario
from .sim import TRACE_COLUMNS, SimTrace, check_admissibility, run

EXIT_OK = 0
_CSV_BLOCK = 64  # trace rows converted to Python floats at a time: a run peaks in memory here


def write_trace_csv(trace: SimTrace, path: Path) -> None:
    n = trace.x.shape[1]
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"xhat{i+1}" for i in range(n)]
              + [name for _, name in TRACE_COLUMNS])
    columns = [trace.t, trace.x, trace.x_hat] + [getattr(trace, attr) for attr, _ in TRACE_COLUMNS]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # A NaN cell empty and any other its repr, a block of rows at a time, so neither the
        # table nor its Python floats are ever whole.  A block is one %-format: %r per cell,
        # nothing for an all-NaN column; a float's repr holds "nan" only if it is NaN, so
        # one replace empties the other NaN cells.
        for start in range(0, trace.t.size, _CSV_BLOCK):
            block = np.column_stack([col[start:start + _CSV_BLOCK] for col in columns])
            dead = np.isnan(block).all(axis=0)
            row = ",".join("" if d else "%r" for d in dead.tolist()) + "\r\n"
            text = row * len(block) % tuple(block[:, ~dead].ravel().tolist())
            fh.write(text.replace("nan", ""))


def write_transmissions_csv(trace: SimTrace, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "tk", "pk", "rk", "rtk"])
        for tx in trace.transmissions:
            writer.writerow([tx.k, tx.t_k, tx.p_k, tx.r_k, tx.r_tilde_k])


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return obj


def _simulate_one(path: Path, args) -> int:
    scenario, _ = load_scenario(path)
    report = check_admissibility(scenario)
    print(f"== {path}")
    print(report)
    if not report.ok and not args.force:
        print("admissibility failed (use --force to run anyway)")
        return AdmissibilityError.exit_code

    try:
        trace, breach = run(scenario, force=True), None
    except EtcsimError as exc:
        if getattr(exc, "trace", None) is None:
            raise
        trace, breach = exc.trace, exc  # a breached run still writes what it recorded

    out_dir = Path(args.out_dir) if args.out_dir else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{path.stem}_trace.csv"
    tx_path = out_dir / f"{path.stem}_transmissions.csv"
    stats_path = out_dir / f"{path.stem}_stats.json"
    write_trace_csv(trace, trace_path)
    write_transmissions_csv(trace, tx_path)
    stats_path.write_text(json.dumps(_json_safe(trace.stats), indent=2) + "\n")
    print(f"trace -> {trace_path}")
    print(f"transmissions -> {tx_path}")
    print(f"stats -> {stats_path}")
    print(json.dumps(_json_safe(trace.stats), indent=2))
    if breach is not None:
        raise breach
    return EXIT_OK


def cmd_simulate(args) -> int:
    target = Path(args.scenario)
    if not target.is_dir():
        return _simulate_one(target, args)
    files = sorted(f for f in target.glob("*.json")
                   if not (f.stem.endswith("_stats")
                           and f.with_name(f.stem.removesuffix("_stats") + ".json").is_file()))
    if not files:
        print(f"no scenario files in {target}", file=sys.stderr)
        return EtcsimError.exit_code
    return max(_guarded(_simulate_one, f, args) for f in files)


def _guarded(func, *args) -> int:
    """``func(*args)``, with an OSError or EtcsimError reported as its exit code."""
    try:
        return func(*args)
    except (OSError, EtcsimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EtcsimError.exit_code)


def cmd_capacity(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    sched = scenario.schedule
    plans = slot_plans(sched, scenario.horizon)
    print(f"slots: {sched.num_slots}, schedule [{sched.start}, {sched.end}], "
          f"horizon {scenario.horizon}")
    for j, plan in enumerate(plans):
        if plan is not None:
            print(f"slot {j}: window [{plan.problem.start}, {plan.problem.end}), {plan.kind}: "
                  f"value = {plan.value_bits} bits, phi = {plan.phi.tolist()}")
    if all(plan is None for plan in plans):
        print("no blackout lies ahead of a slot before the horizon: a run reads no plan")
    return EXIT_OK


def cmd_triggers(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    rule = scenario.rule
    rows = [(p, float(rule.delay_floor[p]), float(rule.tm[p]))
            for p in range(1, rule.pmax + 1)]
    print(f"unit violation time = {scenario.plant.gamma1:.9f}")
    print(f"lookahead T = {scenario.trigger.lookahead:.9f}")
    print(f"{'p':>3} {'delay_floor':>14} {'max_comm_delay':>16}")
    for p, floor_, tm in rows:
        print(f"{p:>3} {floor_:>14.9f} {tm:>16.9f}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "triggers.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "delay_floor", "max_comm_delay"])
            writer.writerows(rows)
        print(f"table -> {out / 'triggers.csv'}")
    return EXIT_OK


def cmd_constants(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    plant = scenario.plant
    c = plant.constants
    print("P =")
    with np.printoptions(precision=6, suppress=True):
        print(plant.P)
    print(f"beta               = {plant.beta:.9f}")
    print(f"decay_gap (w)      = {c.decay_gap:.9f}")
    print(f"guarded_gap (W)    = {c.guarded_decay_gap:.9f}")
    print(f"growth_rate        = {c.growth_rate:.9f}")
    print(f"growth_rate_inf    = {c.growth_rate_inf:.9f}")
    print(f"error_scale        = {c.error_scale:.9e}")
    print(f"Vd0                = {plant.vd0:.9f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etcsim",
        description="Event-triggered control over rate-limited channels with blackouts")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="run a scenario file (or directory)")
    sim_p.add_argument("scenario")
    sim_p.add_argument("--out-dir", default=None)
    sim_p.add_argument("--force", action="store_true",
                       help="run even when admissibility fails")
    sim_p.set_defaults(func=cmd_simulate)

    cap_p = sub.add_parser("capacity", help="the per-slot capacity plans a run reads")
    cap_p.add_argument("scenario")
    cap_p.set_defaults(func=cmd_capacity)

    trg_p = sub.add_parser("triggers", help="threshold table for the scenario plant")
    trg_p.add_argument("scenario")
    trg_p.add_argument("--out-dir", default=None)
    trg_p.set_defaults(func=cmd_triggers)

    con_p = sub.add_parser("constants", help="plant certificate and rate constants")
    con_p.add_argument("scenario")
    con_p.set_defaults(func=cmd_constants)

    args = parser.parse_args(argv)
    return _guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
