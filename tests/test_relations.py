"""Exact relations between runs of the engine, asserted byte for byte.

- Replay: a run is a function of its sends.  Its send times, fed to the engine's loop
  in place of the fire search (``ReplayEngine``), give back its trace rows,
  transmissions, stats and breach, on the bundled scenarios and on the witness
  documents of ``test_fuzz.py``, whose runs breach.
- Scale: ``x0`` and ``xhat0`` times 2^k scale ``d_e0`` by 2^k and ``V`` and ``V_d`` by
  4^k exactly, which leaves every ratio the rule reads unchanged while the floats stay
  in the normal range, so the transmissions do not move: down to k = -520 on the bundled
  scenarios, and not at -530, where ``V_d`` goes subnormal.
- Horizon prefix: a run cut at a horizon inside a slot sends, and records, what the
  longer run does before that horizon.
"""

import functools
import json
import math

import pytest
from conftest import SCENARIOS, ReplayEngine
from test_fuzz import _ENTRY_MARGIN_BREACHES, _MISSED_FIRINGS

from etcsim.errors import GuaranteeBreachError, ObjectiveViolationError
from etcsim.scenario import build_scenario
from etcsim.sim import _Engine, run
from etcsim.triggers import ROOT_TOL

BUNDLED = ("sec6", "clear10", "jordan4")


def bundled(stem):
    return json.loads((SCENARIOS / f"{stem}.json").read_text())


class RecordingEngine(_Engine):
    """``_Engine`` that keeps every send time its fire search returns."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.sends = []

    def _locate_fire(self, t_start):
        t = super()._locate_fire(t_start)
        if t is not None:
            self.sends.append(t)
        return t


def outcome(engine):
    """The engine's run as bytes: its rows, transmissions and stats but the search's work
    counts, and its breach's class and message (None if it has none)."""
    try:
        trace, breach = engine.run(), None
    except (ObjectiveViolationError, GuaranteeBreachError) as exc:
        trace, breach = exc.trace, (type(exc), str(exc))
    stats = {key: value for key, value in trace.stats.items() if key != "diagnostics"}
    return trace.rows.tobytes(), repr(trace.transmissions), repr(stats), breach


REPLAYED = {**{stem: bundled(stem) for stem in BUNDLED},
            **_ENTRY_MARGIN_BREACHES, **_MISSED_FIRINGS}


@pytest.mark.parametrize("name", list(REPLAYED))
def test_a_run_replays_from_its_send_times(name):
    scn = build_scenario(REPLAYED[name])
    recorded = RecordingEngine(scn)
    want = outcome(recorded)
    assert (want[-1] is None) == (name in BUNDLED)
    assert recorded.sends
    assert outcome(ReplayEngine(scn, recorded.sends)) == want


@functools.cache
def bundled_run(stem):
    return run(build_scenario(bundled(stem)))


def packets(trace):
    return repr([(tx.t_k, tx.p_k, tx.r_k, tx.r_tilde_k, tx.symbols)
                 for tx in trace.transmissions])


# clear10's sixth send moves by 6.0e-10 s at k = -525, and each scenario's first send by
# -2.1e-8 s (sec6, clear10) or -2.9e-7 s (jordan4) at k = -530.
_SUBNORMAL = pytest.mark.xfail(strict=True, raises=AssertionError,
                               reason="ROADMAP item 11: V_d goes subnormal and the sends move")


@pytest.mark.parametrize("stem, k", [
    *((stem, k) for stem in BUNDLED for k in (-520, -500, -257, -64, -1, 1, 64, 333)),
    pytest.param("clear10", -525, marks=_SUBNORMAL),
    *(pytest.param(stem, -530, marks=_SUBNORMAL) for stem in BUNDLED),
])
def test_initial_state_times_a_power_of_two_sends_the_same_packets(stem, k):
    doc = bundled(stem)
    for key in ("x0", "xhat0"):
        doc["sim"][key] = [math.ldexp(v, k) for v in doc["sim"][key]]
    assert packets(run(build_scenario(doc))) == packets(bundled_run(stem))


CUTS = {"sec6": (2.0, 5.0, 7.7, 15.4, 18.0), "clear10": (2.5, 7.7, 9.0),
        "jordan4": (0.5, 1.3, 2.7, 3.6)}


@pytest.mark.parametrize("stem, horizon",
                         [(stem, horizon) for stem, cuts in CUTS.items() for horizon in cuts])
def test_a_run_cut_inside_a_slot_is_a_prefix_of_the_longer_run(stem, horizon):
    doc = bundled(stem)
    doc["sim"]["horizon"] = horizon
    scn = build_scenario(doc)
    assert horizon not in scn.schedule.theta
    cut, whole = run(scn), bundled_run(stem)
    stop = horizon - ROOT_TOL
    kept = [tx for tx in whole.transmissions if tx.r_tilde_k < stop]
    assert kept and repr(cut.transmissions) == repr(kept)
    assert cut.rows[cut.t < stop].tobytes() == whole.rows[whole.t < stop].tobytes()
