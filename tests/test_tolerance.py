"""The tolerance contract: what "the same trace" means across a change of rounding.

The dynamic quantizer is an expanding map.  Each p-bit update divides the
cell width by 2^p while a rounding difference in ``x - x_hat`` carries
over, so two runs that differ only in the last bit of some float agree
for a few transmissions and then quantize into different cells.  A
numerical change is therefore judged against a reference run of the same
program with the old formulas patched back in:

- up to the first transmission whose pre-quantization cell position
  ``(x - x_hat + d_e) / width`` moves by more than ``CELL_TOL`` cells,
  ``p_k`` and the symbols are identical and ``|t_k - t_k_ref| <= T_TOL``;
- both runs satisfy every invariant of the theorem (``check_invariants``).

The reference formulas are those before ``ExpKernel.inf_norm`` (the norm
of the stack of ``exp(A t)``), before the two-operand quadratic form in
``PlantModel.lyapunov_value`` and, for a plant with no eigenvector basis
(``jordan``), before the Taylor series of ``ExpKernel``'s defective branch:
there the reference takes every ``exp(M t)`` from the Pade-13 expression form.
"""

import json
import math
import random

import numpy as np
import pytest
from conftest import SCENARIOS, check_invariants, pade13_expression_form

from etcsim import codec, linalg, plant
from etcsim.scenario import build_scenario
from etcsim.sim import run

CELL_TOL = 1e-6
T_TOL = 1e-8


def reference_formulas(mp):
    """Patch the formulas this contract was written for back to their earlier form."""
    mp.setattr(linalg.ExpKernel, "inf_norm", lambda self, t: linalg.inf_norm(self(t)))
    mp.setattr(linalg.ExpKernel, "_series", lambda self, ts: pade13_expression_form(
        self.M, ts.reshape(-1)).reshape(ts.shape + self.M.shape))

    def lyapunov_value(self, x):
        v = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", v, self.P, v)

    mp.setattr(plant.PlantModel, "lyapunov_value", lyapunov_value)


def document(name, seed):
    """sec6 or jordan4 as shipped, or the clear channel stretched to 60 s in two slots;
    any seed but 0 rotates x0 by the angle the benchmark gives that seed."""
    stem = "jordan4" if name == "jordan" else "sec6"
    doc = json.loads((SCENARIOS / f"{stem}.json").read_text())
    if name == "clear60":
        doc["channel"]["slots"] = [{"theta_start": lo, "theta_end": lo + 30.0,
                                    "R": 2400, "pi_bar": 8} for lo in (0.0, 30.0)]
        doc["sim"].update(mode="no_blackout", horizon=60.0)
    if seed:
        angle = math.radians(random.Random(seed).uniform(-5.0, 5.0))
        x, y = doc["sim"]["x0"]
        doc["sim"]["x0"] = [x * math.cos(angle) - y * math.sin(angle),
                            x * math.sin(angle) + y * math.cos(angle)]
    return doc


def recorded_run(mp, doc):
    """Build and run a scenario; also return each packet's cell positions before quantizing."""
    positions = []
    encode = codec.encode

    def recording(plant_, x, state, p, t):
        bound = state.d_e(plant_, t)
        width = 2.0 * bound / (1 << p)
        positions.append((np.asarray(x) - state.x_hat_at(plant_, t) + bound) / width)
        return encode(plant_, x, state, p, t)

    mp.setattr(codec, "encode", recording)
    scn = build_scenario(doc)
    return scn, run(scn), positions


def agreeing_prefix(ref_positions, positions):
    """Number of transmissions before the first whose cell positions differ by over CELL_TOL."""
    for k, (a, b) in enumerate(zip(ref_positions, positions)):
        if np.max(np.abs(a - b)) > CELL_TOL:
            return k
    return min(len(ref_positions), len(positions))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["sec6", "clear60", "jordan"])
def test_trace_matches_reference_up_to_first_cell_divergence(name, seed):
    doc = document(name, seed)
    with pytest.MonkeyPatch.context() as mp:
        reference_formulas(mp)
        ref_scn, ref, ref_positions = recorded_run(mp, doc)
    with pytest.MonkeyPatch.context() as mp:
        scn, trace, positions = recorded_run(mp, doc)
    check_invariants(ref_scn, ref)
    check_invariants(scn, trace)

    prefix = agreeing_prefix(ref_positions, positions)
    assert prefix >= 1
    for a, b in zip(ref.transmissions[:prefix], trace.transmissions[:prefix]):
        assert (a.p_k, a.symbols) == (b.p_k, b.symbols)
        assert abs(a.t_k - b.t_k) <= T_TOL
    if prefix == min(len(ref_positions), len(positions)):
        assert len(ref.transmissions) == len(trace.transmissions)
