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

The trace CSV has two writers with the same bytes.  A run of at least
``_STREAM_MIN_ROWS`` sample rows (``horizon / sample_step``) streams it,
where ``os.fork`` exists: at the run's first row a forked child starts,
on another CPU than the run's where the process may set its affinity,
the engine passes it every block of rows it records through a pipe, and
the child formats them into ``<stem>_trace.csv.part`` while the run goes
on.  After the run the child is reaped, and the file moved into place, or
removed when the run leaves no trace.  Shorter runs, and platforms without
``os.fork``, write it in process after the run (``write_trace_csv``).  Both
format the rows the engine recorded (``SimTrace.rows``) in 64-row blocks
counted from row 0; the CSV header alone names the columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .capacity import slot_plans
from .errors import AdmissibilityError, EtcsimError
from .scenario import load_scenario
from .sim import TRACE_COLUMNS, SimTrace, check_admissibility, run

EXIT_OK = 0
_CSV_BLOCK = 64  # trace rows converted to Python floats at a time: a run peaks in memory here
# Fewest sample rows (horizon / sample_step) for which a run streams its trace to a forked
# writer.  The fork costs the run several ms, and streaming saves at most the shorter of the
# run and the formatting.  Cold, on a 2-core x86-64 VM, sec6's plant streamed was slower at
# 1,000 rows and faster at 1,500; jordan's, whose run takes under 10 ms, was slower at every
# count up to 2,000.
_STREAM_MIN_ROWS = 1500


def _write_trace_blocks(path: Path, n: int, blocks) -> None:
    """The trace CSV of an n-state plant at path, from blocks of its rows (float arrays of
    its columns, in order): a NaN cell empty and any other its repr."""
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"xhat{i+1}" for i in range(n)]
              + [name for _, name in TRACE_COLUMNS])
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # A block of rows at a time, so neither the table nor its Python floats are ever
        # whole.  A block is one %-format: %r per cell, nothing for an all-NaN column; a
        # float's repr holds "nan" only if it is NaN, so one replace empties the other NaN
        # cells.
        for block in blocks:
            dead = np.isnan(block).all(axis=0)
            row = ",".join("" if d else "%r" for d in dead.tolist()) + "\r\n"
            text = row * len(block) % tuple(block[:, ~dead].ravel().tolist())
            fh.write(text.replace("nan", ""))


def write_trace_csv(trace: SimTrace, path: Path) -> None:
    """The in-process writer: the trace CSV of a finished run, from 64-row slices of
    ``trace.rows``, counted from row 0: the blocks the streamed writer formats."""
    rows = trace.rows
    _write_trace_blocks(path, trace.x.shape[1],
                        (rows[i:i + _CSV_BLOCK] for i in range(0, len(rows), _CSV_BLOCK)))


def _current_cpu() -> int | None:
    """The CPU this process runs on (field 39 of Linux's /proc/self/stat), or None where the
    process cannot set its CPU affinity or the file cannot be read."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class _TraceStream:
    """The streamed writer: a run's trace CSV, formatted by a forked child as the run goes.

    ``send`` is the run's ``on_rows``: it gets the rows the engine records,
    in order, which are the rows of the run's ``SimTrace.rows``.  The first
    block forks the child; each block's float64 bytes go down a pipe to it,
    and it regroups them into 64-row blocks counted from row 0, the slices
    ``write_trace_csv`` formats, and writes ``<path>.part``.  ``close``
    reaps the child on every path.
    """

    def __init__(self, path: Path, n: int):
        self.path, self.part, self.n = path, path.with_name(path.name + ".part"), n
        self.pid = self.pipe = None

    def send(self, rows: np.ndarray) -> None:
        if self.pid is None:
            self._fork(rows.shape[1])
        self.pipe.write(rows)

    def _fork(self, width: int) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        sys.stdout.flush()  # else the child holds what they buffer, and may write it again
        sys.stderr.flush()
        run_cpu = _current_cpu()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(write_fd)
                self._write(read_fd, width, run_cpu)
                status = 0
            except BaseException as exc:  # reported; the child ends with status 1
                print(f"error: trace writer: {exc}", file=sys.stderr, flush=True)
            finally:
                os._exit(status)
        os.close(read_fd)
        self.pipe = os.fdopen(write_fd, "wb")

    def _write(self, read_fd: int, width: int, run_cpu: int | None) -> None:
        """The child's work: the rows read from read_fd, formatted into ``<path>.part``."""
        # Off the run's CPU: where the scheduler does not balance load (a cpuset with
        # sched_load_balance off), a forked child stays on its parent's CPU, and the two
        # would take turns on it.
        others = os.sched_getaffinity(0) - {run_cpu} if run_cpu is not None else None
        if others:
            os.sched_setaffinity(0, others)
        size = _CSV_BLOCK * width * 8
        with os.fdopen(read_fd, "rb") as src:  # read(size) returns size bytes, until EOF
            _write_trace_blocks(self.part, self.n, (
                np.frombuffer(chunk).reshape(-1, width)
                for chunk in iter(lambda: src.read(size), b"")))

    def close(self, keep: bool) -> bool:
        """Reap the child, if it was forked, and say whether it was.

        With keep, its file becomes the trace, or an OSError is raised if it
        failed; without, the file is removed.
        """
        if self.pid is None:
            return False
        try:
            self.pipe.close()  # the child's end of file
        except OSError:  # the child has gone: its status tells how
            pass
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if keep and status == 0:
            os.replace(self.part, self.path)
            return True
        self.part.unlink(missing_ok=True)
        if keep:
            raise OSError(f"the trace writer exited with status {status}")
        return True


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

    out_dir = Path(args.out_dir) if args.out_dir else path.parent
    trace_path = out_dir / f"{path.stem}_trace.csv"
    tx_path = out_dir / f"{path.stem}_transmissions.csv"
    stats_path = out_dir / f"{path.stem}_stats.json"
    stream = None
    if scenario.horizon / scenario.sample_step >= _STREAM_MIN_ROWS and hasattr(os, "fork"):
        stream = _TraceStream(trace_path, scenario.plant.n)
    try:
        try:
            trace, breach = run(scenario, force=True,
                                on_rows=stream.send if stream else None), None
        except EtcsimError as exc:
            if getattr(exc, "trace", None) is None:
                raise
            trace, breach = exc.trace, exc  # a breached run still writes what it recorded
    except BaseException:
        if stream:
            stream.close(keep=False)
        raise

    out_dir.mkdir(parents=True, exist_ok=True)
    if not (stream and stream.close(keep=True)):  # no stream, or a run with no row
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
