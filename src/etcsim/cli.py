"""Command-line interface: simulate, capacity, triggers, constants.

Exit codes: 0 success, 2 schema or configuration problem, 3 failed
admissibility, 4 objective violation during a run, 5 theorem-guarantee
breach.  ``simulate`` accepts a scenario file or (with ``--jobs``) a
directory of scenario files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .capacity import AllocationProblem, capacity_exact, plan_window
from .channel import compute_J
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    EtcsimError,
    GuaranteeBreachError,
    ObjectiveViolationError,
    ScaleGuardError,
    SchemaError,
)
from .scenario import load_scenario
from .sim import SimTrace, check_admissibility, run

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ADMISSIBILITY = 3
EXIT_OBJECTIVE = 4
EXIT_BREACH = 5
_CSV_BLOCK = 256  # trace rows converted to Python floats at a time


def _exit_code(exc: EtcsimError) -> int:
    if isinstance(exc, (SchemaError, ConfigurationError)):
        return EXIT_SCHEMA
    if isinstance(exc, AdmissibilityError):
        return EXIT_ADMISSIBILITY
    if isinstance(exc, ObjectiveViolationError):
        return EXIT_OBJECTIVE
    if isinstance(exc, GuaranteeBreachError):
        return EXIT_BREACH
    return EXIT_SCHEMA


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def write_trace_csv(trace: SimTrace, path: Path) -> None:
    n = trace.x.shape[1]
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"xhat{i+1}" for i in range(n)]
              + ["V", "Vd", "hpf", "eps", "hch", "de", "Phi", "psi", "Shat", "L3"])
    table = np.column_stack([trace.t, trace.x, trace.x_hat, trace.V, trace.Vd, trace.h_pf,
                             trace.eps, trace.h_ch, trace.d_e, trace.phi, trace.psi,
                             trace.s_hat, trace.l3])
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # Whole rows at once, formatted as _fmt formats a cell: NaN empty, else repr;
        # a block of rows at a time, so the table is never all Python floats at once.
        for start in range(0, len(table), _CSV_BLOCK):
            fh.writelines(",".join("" if v != v else repr(v) for v in row) + "\r\n"
                          for row in table[start:start + _CSV_BLOCK].tolist())


def write_transmissions_csv(trace: SimTrace, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "tk", "pk", "rk", "rtk"])
        for tx in trace.transmissions:
            writer.writerow([tx.k, _fmt(tx.t_k), tx.p_k, _fmt(tx.r_k), _fmt(tx.r_tilde_k)])


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return obj


def _simulate_one(path: Path, args) -> int:
    scenario, doc = load_scenario(path)
    overrides = {}
    if args.delay_factor is not None:
        overrides["delay_factor"] = args.delay_factor
    if args.packet_policy is not None:
        overrides["packet_policy"] = args.packet_policy
    if args.scan_step is not None:
        overrides["scan_step"] = args.scan_step
    if overrides:
        import dataclasses
        scenario = dataclasses.replace(scenario, **overrides)

    report = check_admissibility(scenario)
    print(f"== {path}")
    print(report)
    if not report.ok and not args.force:
        print("admissibility failed (use --force to run anyway)")
        return EXIT_ADMISSIBILITY

    trace = run(scenario, force=True)

    out_dir = Path(args.out_dir) if args.out_dir else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    output = doc["sim"].get("output", {})
    stem = path.stem
    trace_path = out_dir / output.get("trace_csv", f"{stem}_trace.csv")
    tx_path = out_dir / output.get("transmissions_csv", f"{stem}_transmissions.csv")
    stats_path = out_dir / output.get("stats_json", f"{stem}_stats.json")
    write_trace_csv(trace, trace_path)
    write_transmissions_csv(trace, tx_path)
    stats_path.write_text(json.dumps(_json_safe(trace.stats), indent=2) + "\n")
    print(f"trace -> {trace_path}")
    print(f"transmissions -> {tx_path}")
    print(f"stats -> {stats_path}")
    print(json.dumps(_json_safe(trace.stats), indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    target = Path(args.scenario)
    if target.is_dir():
        files = sorted(target.glob("*.json"))
        if not files:
            print(f"no scenario files in {target}", file=sys.stderr)
            return EXIT_SCHEMA
        if args.jobs and args.jobs > 1:
            # Spawned workers: forking a process whose BLAS threads already
            # run can leave a child holding a lock no thread will release.
            with ProcessPoolExecutor(max_workers=args.jobs,
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                codes = list(pool.map(_simulate_worker,
                                      [(str(f), _worker_args(args)) for f in files]))
        else:
            codes = [_guarded_simulate(f, args) for f in files]
        return max(codes)
    return _guarded_simulate(target, args)


def _guarded_simulate(path: Path, args) -> int:
    try:
        return _simulate_one(Path(path), args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except EtcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _worker_args(args) -> dict:
    return {"delay_factor": args.delay_factor, "packet_policy": args.packet_policy,
            "scan_step": args.scan_step, "force": args.force, "out_dir": args.out_dir}


def _simulate_worker(payload) -> int:
    path, opts = payload
    ns = argparse.Namespace(**opts)
    return _guarded_simulate(Path(path), ns)


def cmd_capacity(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    sched = scenario.schedule
    problem = AllocationProblem.from_schedule(sched, 0, sched.num_slots)
    J = compute_J(sched, 0, sched.num_slots)
    print(f"slots: {sched.num_slots}, window [{sched.start}, {sched.end}], "
          f"J = {'unbounded' if J is None else J}")
    plan = plan_window(problem, J != 0)
    print(f"{plan.kind}: value = {plan.value_bits} bits, phi = {plan.phi.tolist()}")
    if plan.lp_phi is not None:
        print(f"relaxed phi = {[round(float(v), 6) for v in plan.lp_phi]}")
    try:
        exact = capacity_exact(problem)
        print(f"exact: value = {exact.value_bits} bits, phi = {exact.phi.tolist()}")
        gap = exact.value_bits - plan.value_bits
        usable = int(np.sum(problem.caps > 0))
        print(f"sub-optimality gap = {gap} bits (certified bound {problem.n * usable})")
    except ScaleGuardError as exc:
        print(f"exact: omitted ({exc})")
    return EXIT_OK


def cmd_triggers(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    rule = scenario.rule
    rows = [(p, float(rule.delay_floor[p]), float(rule.tm[p]))
            for p in range(1, rule.pmax + 1)]
    print(f"unit violation time = {rule.gamma1:.9f}")
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
    np.set_printoptions(precision=6, suppress=True)
    print("P =")
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
    sim_p.add_argument("--delay-factor", type=float, default=None)
    sim_p.add_argument("--packet-policy", choices=["max_bits", "min_bits"], default=None)
    sim_p.add_argument("--scan-step", type=float, default=None)
    sim_p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers for a scenario directory")
    sim_p.set_defaults(func=cmd_simulate)

    cap_p = sub.add_parser("capacity", help="data-capacity values for the schedule")
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
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except EtcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
