"""The benchmark's own test: traced runs repeat their work counters.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
Each workload is traced twice on seed 0; every work counter must be
identical between the two runs and match the shape of today's program.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def seed0():
    return {w: (traced_run(w, 0), traced_run(w, 0)) for w in ("sec6", "clear60", "jordan")}


@pytest.mark.parametrize("workload", ["sec6", "clear60", "jordan"])
def test_counters_repeat(seed0, workload):
    first, second = seed0[workload]
    assert {c: first[c] for c in spans.COUNTERS} == {c: second[c] for c in spans.COUNTERS}


def test_seed0_shape(seed0):
    m = {w: runs[0] for w, runs in seed0.items()}
    for w in m:
        assert m[w]["sim.admissibility_calls"] == 2, w
        assert m[w]["triggers.delay_floor_calls"] == 24, w
        assert (m[w]["capacity.lp_solves"] > 0) == (w == "sec6"), w
        assert (m[w]["linalg.mat_exp_calls.sim"] > 10000) == (w == "jordan"), w
    assert m["clear60"]["sim.scan_efficiency"] < 0.2
    assert m["sec6"]["sim.scan_efficiency"] > 0.9
