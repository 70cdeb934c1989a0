import copy
import csv
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etcsim.cli
import etcsim.errors
import etcsim.sim
import etcsim.triggers
from etcsim.cli import main
from etcsim.errors import ConfigurationError, NotHurwitzError, SchemaError
from etcsim.scenario import build_scenario, load_scenario
from etcsim.triggers import blackout_entry_margin

REPO_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "sec6.json"
EXIT_CODES = {
    "EtcsimError": 2, "SchemaError": 2, "ConfigurationError": 2, "DimensionError": 2,
    "NotHurwitzError": 2, "DecayMarginError": 2, "DomainError": 2, "NumericalError": 2,
    "HorizonError": 2,
    "AdmissibilityError": 3, "ObjectiveViolationError": 4, "GuaranteeBreachError": 5,
    "InvariantBreachError": 5, "CausalityError": 5, "FeasibilityError": 5,
}


def stream_trace_csv(trace, path, piece):
    """The CLI's streamed writer fed the trace's rows piece rows at a time, and, as in the
    CLI, the in-process writer when no row came."""
    rows = trace.rows
    stream = etcsim.cli._TraceStream(path, trace.x.shape[1])
    for start in range(0, len(rows), piece):
        stream.send(rows[start:start + piece])
    if not stream.close(keep=True):
        etcsim.cli.write_trace_csv(trace, path)


def assert_no_child_or_part(out_dir):
    """No child process of this one is left, not even unreaped, nor any ``*.part`` file."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(Path(out_dir).rglob("*.part"))


@pytest.fixture(scope="module")
def sec6_doc():
    return json.loads(REPO_SCENARIO.read_text())


def scenario_numbers(scn):
    """Every number a Scenario holds, as plain lists and floats that compare exactly."""
    plant, sched = scn.plant, scn.schedule
    return {
        "plant": [plant.A.tolist(), plant.B.tolist(), plant.K.tolist(), plant.Q.tolist(),
                  plant.P.tolist(), plant.a, plant.beta, plant.vd0, plant.constants],
        "schedule": [sched.theta.tolist(), sched.rates.tolist(), sched.caps.tolist(), sched.n],
        "trigger": scn.trigger,
        "sim": [scn.x0.tolist(), scn.x_hat0.tolist(), scn.d_e0, scn.delay_factor,
                scn.packet_policy, scn.horizon, scn.sample_step],
    }


def as_decimal_strings(value, key=None):
    """``value`` with every JSON number but the integers ``n`` and ``pi_bar`` as a string."""
    if isinstance(value, dict):
        return {k: as_decimal_strings(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [as_decimal_strings(v, key) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and key not in ("n", "pi_bar"):
        return repr(value)
    return value


class TestSchema:
    def test_decimal_strings_accepted(self, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"]["horizon"] = "20.0"
        doc["plant"]["a"] = "1.2"
        scn = build_scenario(doc)
        assert (scn.horizon, scn.plant.a) == (20.0, 1.2)
        assert scenario_numbers(scn) == scenario_numbers(build_scenario(sec6_doc))

    def test_every_number_as_a_decimal_string_builds_the_same_scenario(self, sec6_doc):
        doc = as_decimal_strings(sec6_doc)
        assert doc["channel"]["slots"][0] == {"theta_start": "0.0", "theta_end": "2.44",
                                              "R": "3000", "pi_bar": 8}
        assert scenario_numbers(build_scenario(doc)) == scenario_numbers(build_scenario(sec6_doc))

    def test_schema_error_wins_over_a_plant_error(self, sec6_doc):
        # K = [[0, 0]] leaves A + B K = A unstable, but the schema is checked first.
        doc = copy.deepcopy(sec6_doc)
        doc["plant"]["K"] = [[0, 0]]
        with pytest.raises(NotHurwitzError):
            build_scenario(doc)
        doc["sim"]["bogus"] = 1
        with pytest.raises(SchemaError, match=r"sim: unknown fields \['bogus'\]"):
            build_scenario(doc)

    def test_load_returns_the_parsed_file(self, sec6_doc):
        _, doc = load_scenario(REPO_SCENARIO)
        assert doc == sec6_doc
        assert type(doc["channel"]["slots"][0]["R"]) is int  # as written, not converted

    def test_bundled_scenario_matches_preset(self, blackout_scn):
        # The fixture loads the file, so its derived values are pinned to
        # numbers frozen from an earlier build rather than compared with it.
        scn = blackout_scn
        exact = dict(rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            scn.plant.P, [[2.25, -0.9166666666666666], [-0.9166666666666666, 0.5833333333333333]],
            **exact)
        np.testing.assert_allclose(scn.plant.beta, 0.30126088273150514, **exact)
        np.testing.assert_allclose(scn.plant.vd0, 161.20000000000002, **exact)
        np.testing.assert_allclose(scn.d_e0, 9.0, **exact)
        np.testing.assert_allclose(
            scn.schedule.theta,
            [0.0, 2.44, 4.88, 6.88, 9.2, 11.52, 13.52, 15.285, 17.05, 19.05, 20.0], **exact)
        np.testing.assert_allclose(
            scn.schedule.rates,
            [3000.0, 3400.0, 3000.0, 3200.0, 3600.0, 3000.0, 3100.0, 3400.0, 3000.0, 3200.0],
            **exact)
        assert scn.schedule.caps.tolist() == [8, 8, 0, 7, 8, 0, 6, 8, 0, 8]
        assert scn.trigger.lookahead == pytest.approx(0.05698508383167446, rel=0, abs=1e-9)
        assert (scn.trigger.sigma, scn.trigger.sigma1) == (0.06, 0.8)
        assert etcsim.triggers.ROOT_TOL == 1e-9
        assert (scn.schedule.blackout_slots(), scn.horizon) == ([2, 5, 8], 20.0)

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("plant"), "plant"),
        (lambda d: d["plant"].pop("A"), "plant.A"),
        (lambda d: d["plant"].update(beta=0.3), "one of"),
        (lambda d: d["plant"].update(A=[[1, 2], [3]]), "ragged"),
        (lambda d: d["channel"]["slots"][1].update(theta_start=1.0), "gap or overlap"),
        (lambda d: d["channel"]["slots"][0].update(pi_bar=1.5), "pi_bar"),
        (lambda d: d["sim"].update(mode="sometimes"), "mode"),
        (lambda d: d["sim"].update(bogus=1), "unknown"),
        (lambda d: d["trigger"].update(sigma="not-a-number"), "sigma"),
        (lambda d: d["channel"]["slots"][0].update(R="nan"), "R: 'nan'"),
        (lambda d: d["sim"].update(sample_step="nan"), "sim.sample_step"),
        (lambda d: d["sim"].update(scan_step=0.01), "'scan_step'"),  # no longer a field
        (lambda d: d["plant"].update(Vd0_factor="inf"), "plant.Vd0_factor"),
        (lambda d: d["sim"].update(horizon=float("nan")), "sim.horizon"),  # JSON NaN
        (lambda d: d["trigger"].update(sigma="-inf"), "trigger.sigma"),
        (lambda d: d["channel"].update(n=True), "channel.n: expected"),
        (lambda d: d["channel"]["slots"][0].update(pi_bar=True), "pi_bar: expected"),
        (lambda d: d["trigger"].update(root_tol=1e-9), "trigger: unknown fields"),
        (lambda d: d["sim"].update(x0=[6, -4, 1]), "sim.x0: expected 2 entries"),
        (lambda d: d["sim"].update(xhat0=[0, 0, 0]), "sim.xhat0: expected 2 entries"),
    ])
    def test_schema_errors_carry_field_context(self, sec6_doc, mutate, fragment):
        doc = copy.deepcopy(sec6_doc)
        mutate(doc)
        with pytest.raises(SchemaError, match=fragment):
            build_scenario(doc)

    def test_json_nan_literal_rejected(self, sec6_doc, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(sec6_doc).replace('"horizon": 20.0', '"horizon": NaN'))
        with pytest.raises(SchemaError, match="sim.horizon"):
            load_scenario(path)

    def test_integer_beyond_float_range_rejected(self, sec6_doc, tmp_path):
        path = tmp_path / "huge.json"
        huge = "1" + "0" * 400  # a JSON integer with no float value
        path.write_text(json.dumps(sec6_doc).replace('"horizon": 20.0', f'"horizon": {huge}'))
        with pytest.raises(SchemaError, match="sim.horizon: 10* is not a finite number"):
            load_scenario(path)

    @pytest.mark.parametrize("field,value", [
        ("sample_step", 0), ("sample_step", -0.01),
    ])
    def test_nonpositive_steps_rejected(self, sec6_doc, field, value):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"][field] = value
        with pytest.raises(ConfigurationError, match=field):
            build_scenario(doc)

    def test_mode_is_optional_and_left_out_of_the_document(self, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        del doc["sim"]["mode"]
        scn = build_scenario(doc)
        assert scn.schedule.blackout_slots() == [2, 5, 8]
        assert scenario_numbers(scn) == scenario_numbers(build_scenario(sec6_doc))


class TestCli:
    def test_constants_and_triggers_and_capacity(self, capsys):
        assert main(["constants", str(REPO_SCENARIO)]) == 0
        assert main(["triggers", str(REPO_SCENARIO)]) == 0
        assert main(["capacity", str(REPO_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "2.25" in out and "delay_floor" in out and "lp_floor" in out

    def test_constants_leaves_the_callers_print_options(self, capsys):
        # P prints at precision 6 with small values suppressed, whatever the caller's
        # numpy print options; those options are the same after the call.
        with np.printoptions(precision=8, suppress=False):
            before = np.get_printoptions()
            assert main(["constants", str(REPO_SCENARIO)]) == 0
            assert np.get_printoptions() == before
        assert capsys.readouterr().out.splitlines()[:4] == [
            "P =", "[[ 2.25     -0.916667]", " [-0.916667  0.583333]]",
            "beta               = 0.301260883"]

    def test_capacity_prints_the_plans_a_run_reads(self, blackout_scn, capsys):
        # One line per slot whose plan the run keeps, in slot order; none on a clear channel.
        assert main(["capacity", str(REPO_SCENARIO)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("slot ")]
        want = [f"slot {j}: window [{plan.problem.start}, {plan.problem.end}), {plan.kind}: "
                f"value = {plan.value_bits} bits, phi = {plan.phi.tolist()}"
                for j, plan in enumerate(blackout_scn.rule.plans) if plan is not None]
        assert lines == want and len(want) == 8
        assert main(["capacity", str(REPO_SCENARIO.parent / "clear10.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "no blackout lies ahead of a slot before the horizon: a run reads no plan"
        assert not any(line.startswith("slot ") for line in out)

    def test_non_finite_stat_is_written_as_a_string(self, tmp_path, monkeypatch):
        # A breach whose V_d underflows reports max_h_pf = inf (ROADMAP item 11).  No shipped
        # run reaches that, so summarize is patched to report it.
        summarize = etcsim.sim.summarize
        monkeypatch.setattr(etcsim.sim, "summarize", lambda trace, schedule: {
            **summarize(trace, schedule), "max_h_pf": math.inf})
        scenario = REPO_SCENARIO.parent / "clear10.json"
        assert main(["simulate", str(scenario), "--out-dir", str(tmp_path)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        stats = json.loads((tmp_path / "clear10_stats.json").read_text(), parse_constant=refuse)
        assert stats["max_h_pf"] == "inf" and stats["transmission_count"] >= 1

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        code = main(["simulate", str(REPO_SCENARIO), "--out-dir", str(tmp_path)])
        assert code == 0
        trace = (tmp_path / "sec6_trace.csv").read_text().splitlines()
        assert trace[0] == ("t,x1,x2,xhat1,xhat2,V,Vd,hpf,eps,hch,de,"
                            "Phi,psi,Shat,L3")
        txs = (tmp_path / "sec6_transmissions.csv").read_text().splitlines()
        assert txs[0] == "k,tk,pk,rk,rtk"
        stats = json.loads((tmp_path / "sec6_stats.json").read_text())
        assert stats["transmission_count"] >= 1

    @staticmethod
    def assert_trace_csv_is_cell_by_cell(trace, tmp_path, piece=None):
        """write_trace_csv, or with piece the streamed writer fed that many rows at a time,
        gives the bytes of csv.writer fed one cell at a time: a NaN cell empty, any other its
        repr."""
        columns = [trace.t[:, None], trace.x, trace.x_hat] + [
            getattr(trace, attr)[:, None] for attr, _ in etcsim.sim.TRACE_COLUMNS]
        with (tmp_path / "reference.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x1", "x2", "xhat1", "xhat2", "V", "Vd", "hpf", "eps", "hch",
                             "de", "Phi", "psi", "Shat", "L3"])
            for i in range(trace.t.size):
                writer.writerow(["" if math.isnan(v) else repr(float(v))
                                 for col in columns for v in col[i]])
        if piece is None:
            etcsim.cli.write_trace_csv(trace, tmp_path / "trace.csv")
        else:
            stream_trace_csv(trace, tmp_path / "trace.csv", piece)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_trace_csv_matches_cell_by_cell_writer(self, request, tmp_path, name):
        self.assert_trace_csv_is_cell_by_cell(request.getfixturevalue(f"{name}_trace"), tmp_path)

    @staticmethod
    def synthetic_trace(rows, rng):
        """A two-state SimTrace of random cells, three 64-row blocks when rows = 150; its
        columns are views of its one table of rows."""
        shape = (rows, len(etcsim.sim.TRACE_COLUMNS))
        table = np.column_stack([np.linspace(0.0, 1.0, rows), rng.normal(size=(rows, 4)),
                                 rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)])
        return etcsim.sim.SimTrace(table, transmissions=[], horizon=1.0, scan_step=0.01)

    @pytest.mark.parametrize("rows,piece", [  # piece: streamed, fed that many rows at a time
        pytest.param(rows, piece, id=str(rows) if piece is None else f"{rows}-streamed{piece}")
        for rows in (150, 1, 0) for piece in (None, 1, 63, 65, 130)])
    def test_trace_csv_edge_cells_match_cell_by_cell_writer(self, tmp_path, rows, piece, rng):
        trace = self.synthetic_trace(rows, rng)
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5]
        if rows == 150:
            # Block 0 (rows 0-63) has partly-NaN columns, whose NaN cells the writer's replace
            # empties; blocks 1 and 2 have only NaN-free and all-NaN columns.  phi is NaN
            # throughout, s_hat only in block 1, psi only in rows 10-20.
            trace.phi[:] = np.nan
            trace.s_hat[64:128] = np.nan
            trace.psi[10:21] = np.nan
            for block in (0, 64, 128):
                trace.x[block:block + 6, 0] = specials[1:]
                trace.V[block + 7:block + 13] = specials[1:]
                trace.l3[block + 13:block + 19] = specials[1:]
            trace.eps[3] = np.nan
        elif rows == 1:
            trace.x[0] = [-0.0, 5e-324]
            trace.h_ch[0], trace.d_e[0], trace.phi[0] = np.inf, 1e16, np.nan
        self.assert_trace_csv_is_cell_by_cell(trace, tmp_path, piece)
        assert_no_child_or_part(tmp_path)
        lines = (tmp_path / "trace.csv").read_bytes().split(b"\r\n")
        assert len(lines) == rows + 2 and lines[-1] == b""
        if rows == 150:  # lines[i + 1] is row i; cells 11, 12 and 13 are phi, psi and s_hat
            assert b",-0.0," in lines[3] and b",5e-324," in lines[68] and b",1e+16," in lines[133]
            cells = [lines[i].split(b",") for i in (16, 70, 140)]
            assert [c[11] for c in cells] == [b""] * 3
            assert cells[0][12] == b"" and cells[1][13] == b""
            assert b"" not in (cells[0][13], cells[1][12], cells[2][12], cells[2][13])

    def test_simulate_imports_no_scipy(self, tmp_path):
        # sec6 has blackouts, so this path builds capacity plans; no
        # process pool is loaded either.
        probe = ("import atexit, runpy, sys\n"
                 "atexit.register(lambda: print('SCIPY', sorted(m for m in sys.modules"
                 " if m.startswith(('scipy', 'multiprocessing', 'concurrent.futures')))))\n"
                 "sys.argv = ['etcsim', 'simulate', sys.argv[1], '--out-dir', sys.argv[2]]\n"
                 "runpy.run_module('etcsim', run_name='__main__', alter_sys=True)\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_SCENARIO.parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", probe, str(REPO_SCENARIO), str(tmp_path)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "sec6_trace.csv").exists()
        assert done.stdout.splitlines()[-1] == "SCIPY []"

    def test_simulate_imports_no_numpy_ma(self, tmp_path):
        # The first np.unique call imports numpy.ma; a blackout run makes none.
        probe = ("import runpy, sys\n"
                 "sys.argv = ['etcsim', 'simulate', sys.argv[1], '--out-dir', sys.argv[2]]\n"
                 "try:\n"
                 "    runpy.run_module('etcsim', run_name='__main__', alter_sys=True)\n"
                 "finally:\n"
                 "    print('MA', 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_SCENARIO.parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", probe, str(REPO_SCENARIO), str(tmp_path)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (tmp_path / "sec6_trace.csv").exists(), done.stderr
        assert done.stdout.splitlines()[-1] == "MA False"

    @pytest.mark.parametrize("scenario,mode", [("sec6.json", "no_blackout"),
                                               ("clear10.json", "blackout")])
    def test_mode_against_the_channel_exit_code(self, tmp_path, capsys, scenario, mode):
        doc = json.loads((REPO_SCENARIO.parent / scenario).read_text())
        doc["sim"]["mode"] = mode
        path = tmp_path / scenario
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: sim.mode: the channel's design is" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"plant\": {}}")
        assert main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize("step", ["-1", "0", "nan"])
    def test_nonpositive_scan_step_exit_code(self, tmp_path, sec6_doc, step, capsys):
        # scan_step is no longer a field (the engine derives the step), so a document that
        # still sets it, to any value, fails the schema: exit 2, nothing written.
        doc = copy.deepcopy(sec6_doc)
        doc["sim"]["scan_step"] = step
        path = tmp_path / "step.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert "sim: unknown fields ['scan_step']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["sample_step"])
    def test_step_too_fine_for_the_horizon_exit_code(self, tmp_path, field, capsys):
        doc = json.loads(REPO_SCENARIO.with_name("clear10.json").read_text())
        doc["sim"][field] = 1e-320
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert field in capsys.readouterr().err and not out.exists()

    def test_triggers_table_file(self, tmp_path, blackout_rule):
        assert main(["triggers", str(REPO_SCENARIO), "--out-dir", str(tmp_path / "out")]) == 0
        with (tmp_path / "out" / "triggers.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["p", "delay_floor", "max_comm_delay"]
        assert [int(p) for p, _, _ in rows] == list(range(1, blackout_rule.pmax + 1))
        for p, floor, tm in rows:
            assert float(floor) == blackout_rule.delay_floor[int(p)]
            assert float(tm) == blackout_rule.tm[int(p)]

    def test_output_names_field_exit_code(self, tmp_path, sec6_doc, capsys):
        # Output names come from the file name; a scenario cannot set them.
        doc = copy.deepcopy(sec6_doc)
        doc["sim"]["output"] = {"trace_csv": "sec6_trace.csv"}
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert "sim: unknown fields ['output']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("caps", [[1100] * 10, [8, 8, 0, 0, 8, 0, 6, 8, 0, 8]])
    def test_channel_design_limits_exit_code(self, tmp_path, sec6_doc, caps, capsys):
        # A cap past float64's exact cell centres, or two adjacent blackouts.
        doc = copy.deepcopy(sec6_doc)
        for slot, cap in zip(doc["channel"]["slots"], caps):
            slot["pi_bar"] = cap
        path = tmp_path / "limits.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overlong_lookahead_exit_code(self, tmp_path, capsys):
        # e^{(w+mu) T} past the float range: the delay floors raised OverflowError (exit 1).
        doc = json.loads((REPO_SCENARIO.parent / "clear10.json").read_text())
        del doc["trigger"]["T_fraction_of_gamma1"]
        doc["trigger"]["T"] = 1e9
        path = tmp_path / "long_T.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: lookahead T is too long" in err and "Traceback" not in err

    def test_longest_lookahead_warns_nothing(self, tmp_path, capsys):
        # T at 0.999 of ln(float max) / (w + mu), just inside the bound above: the product in
        # the delay-floor predicate overflowed before its division, a RuntimeWarning that this
        # suite's filter turns into an error (exit 1).  The floors exist; the rule's terms
        # exceed 1 at t0, so the run fails admissibility.
        doc = json.loads((REPO_SCENARIO.parent / "clear10.json").read_text())
        c = build_scenario(doc).plant.constants
        del doc["trigger"]["T_fraction_of_gamma1"]
        doc["trigger"]["T"] = 0.999 * math.log(np.finfo(float).max) / (
            c.decay_gap + c.growth_rate)
        path = tmp_path / "longest_T.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "[FAIL] initial_triggers" in capsys.readouterr().out

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("trigger", [
        {"sigma": 1e-15},  # the default scan step, T_M(1) / 10, gives 3.8e18 points
        {"T": 1e-300},  # e^{(w+mu) T} rounds to 1, every delay floor is T / 1000: 1.6e306 points
    ])
    def test_default_scan_step_too_fine_exit_code(self, tmp_path, capsys, trigger, force):
        # Unforced, admissibility fails; the T = 1e-300 delay floors divided 0 by 0 there, a
        # RuntimeWarning that this suite's filter turns into an error (exit 1).  Forced, the
        # default step's grid, past 2^53 points, ran numpy out of memory or overflowed a C long.
        doc = json.loads((REPO_SCENARIO.parent / "clear10.json").read_text())
        if "T" in trigger:
            del doc["trigger"]["T_fraction_of_gamma1"]
        doc["trigger"].update(trigger)
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["simulate", str(path), "--out-dir", str(out)] + ["--force"] * force
        assert main(argv) == (2 if force else 3)
        if force:
            assert "default scan step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "capacity"])
    @pytest.mark.parametrize("name", ["sec6", "clear10"])
    def test_slot_bit_budget_past_int64_exit_code(self, tmp_path, capsys, name, command):
        # Every R = 1e19: a plan's per-slot bits overflowed a C long in capacity_lp_floor, an
        # OverflowError (exit 1).  The schedule now rejects the slot.
        doc = json.loads((REPO_SCENARIO.parent / f"{name}.json").read_text())
        for slot in doc["channel"]["slots"]:
            slot["R"] = 1e19
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out-dir", str(out)] if command == "simulate" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: slot 0: bit budget" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.json"]

    def test_overflowing_certificate_exit_code(self, tmp_path, capsys):
        # Q = 1e300 I: the spectral norm of P B K overflowed in M^T M, a RuntimeWarning that
        # this suite's filter turns into an error (exit 1).
        doc = json.loads((REPO_SCENARIO.parent / "clear10.json").read_text())
        doc["plant"]["Q"] = [[1e300, 0.0], [0.0, 1e300]]
        path = tmp_path / "big_Q.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: spectral norm out of float range" in capsys.readouterr().err

    @pytest.mark.parametrize("force", [False, True])
    def test_overflowing_initial_level_exit_code(self, tmp_path, capsys, force):
        # V(x0) overflows, so vd0 = Vd0_factor V(x0) is NaN: it exited 3 unforced, and a
        # forced run overflowed in the engine.
        doc = json.loads((REPO_SCENARIO.parent / "clear10.json").read_text())
        doc["sim"]["x0"] = [1e300, 1e300]
        path = tmp_path / "huge_x0.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", str(path), "--out-dir", str(tmp_path)] + ["--force"] * force
        assert main(argv) == 2
        assert "initial performance level must be positive and finite" in capsys.readouterr().err

    def test_margin_violation_exit_code(self, tmp_path, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["plant"]["a"] = 10.0  # pushes the guarded decay margin negative
        path = tmp_path / "margin.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2

    def test_admissibility_exit_code_and_force(self, tmp_path, sec6_doc, capsys):
        doc = copy.deepcopy(sec6_doc)
        for slot in doc["channel"]["slots"]:
            slot["R"] = 500.0  # below every delay threshold
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 3
        forced = main(["simulate", str(path), "--out-dir", str(tmp_path), "--force"])
        assert forced in (0, 4, 5)

    @pytest.mark.parametrize("name,code", EXIT_CODES.items())
    def test_exit_code_of_every_error_class(self, tmp_path, monkeypatch, capsys, name, code):
        cls = getattr(etcsim.errors, name)
        assert cls.exit_code == code

        def failing_run(scenario, force=False, on_rows=None):
            raise cls(f"{name} raised")

        monkeypatch.setattr(etcsim.cli, "run", failing_run)
        assert main(["simulate", str(REPO_SCENARIO), "--out-dir", str(tmp_path)]) == code
        assert f"error: {name} raised" in capsys.readouterr().err

    def test_error_classes_all_listed(self):
        defined = {name for name, obj in vars(etcsim.errors).items()
                   if isinstance(obj, type) and issubclass(obj, etcsim.errors.EtcsimError)}
        assert defined == set(EXIT_CODES)

    def test_objective_violation_exit_code(self, tmp_path, sec6_doc, capsys):
        # V_d(0) below V(x0): admissibility fails, and a forced run breaks h <= 1 at t = 0.
        doc = copy.deepcopy(sec6_doc)
        doc["plant"]["Vd0_factor"] = 0.9
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 3
        assert main(["simulate", str(path), "--out-dir", str(tmp_path), "--force"]) == 4
        assert "performance ratio 1.111" in capsys.readouterr().err

    def test_breach_at_the_first_row_writes_empty_outputs(self, tmp_path, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["plant"]["Vd0_factor"] = 0.9
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path), "--force"]) == 4
        assert len((tmp_path / "tight_trace.csv").read_text().splitlines()) == 1
        assert len((tmp_path / "tight_transmissions.csv").read_text().splitlines()) == 1
        stats = json.loads((tmp_path / "tight_stats.json").read_text())
        assert (stats["transmission_count"], stats["max_h_pf"]) == (0, None)

    def test_guarantee_breach_writes_the_whole_run(self, tmp_path, sec6_doc, capsys):
        # Every rate x10: the default scan step misses a pre-blackout firing, and the
        # check of the finished run finds the error above the entry margin at 17.05.
        doc = copy.deepcopy(sec6_doc)
        for slot in doc["channel"]["slots"]:
            slot["R"] *= 10
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 5
        assert "entry margin" in capsys.readouterr().err
        with (tmp_path / "out" / "fast_trace.csv").open() as fh:
            assert float(list(csv.DictReader(fh))[-1]["t"]) == 20.0
        txs = (tmp_path / "out" / "fast_transmissions.csv").read_text().splitlines()
        stats = json.loads((tmp_path / "out" / "fast_stats.json").read_text())
        assert stats["transmission_count"] == len(txs) - 1 >= 1

    def test_entry_margin_breach_exit_code(self, tmp_path, sec6_doc):
        # Every rate x10: admissible, but the default scan step can miss the
        # pre-blackout firings; either the run reports the breach or its
        # trace holds every entry margin.
        doc = copy.deepcopy(sec6_doc)
        for slot in doc["channel"]["slots"]:
            slot["R"] *= 10
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path)])
        assert code in (0, 5)
        if code == 5:
            return
        scn, _ = load_scenario(path)
        with (tmp_path / "fast_trace.csv").open() as fh:
            rows = [(float(r["t"]), float(r["eps"])) for r in csv.DictReader(fh)]
        for b in scn.schedule.blackout_slots():
            tau_l = float(scn.schedule.theta[b])
            eps = [e for t, e in rows if t == tau_l]
            assert eps and eps[-1] <= blackout_entry_margin(scn.plant,
                                                            float(scn.schedule.durations[b]))

    def test_forced_send_at_t0_exits_ok(self, tmp_path):
        # A Jordan-block plant with Vd0 = 1.2 V(x0) starts with l1 > 1, so it
        # fails admissibility and, under --force, sends at t0 = theta_0.
        doc = {
            "plant": {"A": [[1, 1], [0, 1]], "B": [[0], [1]], "K": [[-9, -6]],
                      "Q": [[1, 0], [0, 1]], "a": 1.2, "beta_fraction": 0.8,
                      "Vd0_factor": 1.2},
            "channel": {"n": 2, "slots": [{"theta_start": 0.0, "theta_end": 0.1,
                                           "R": 2400, "pi_bar": 8}]},
            "trigger": {"T_fraction_of_gamma1": 0.1, "sigma": 0.06, "sigma1": 0.8},
            "sim": {"mode": "no_blackout", "x0": [6, -4], "xhat0": [0, 0],
                    "de0_factor": 1.5, "horizon": 0.1, "sample_step": 0.01},
        }
        path = tmp_path / "jordan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path), "--force"]) == 0
        txs = (tmp_path / "jordan_transmissions.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in txs[1:]] == ["0.0"]
        stats = json.loads((tmp_path / "jordan_stats.json").read_text())
        assert stats["max_h_pf"] == pytest.approx(0.8356, abs=1e-4)
        assert stats["min_de_margin"] > 0.0

    def test_directory_batch(self, tmp_path):
        # Two copies of one scenario: each writes its own three files.
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_bytes(REPO_SCENARIO.read_bytes())
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path), "--out-dir", str(out)]) == 0
        suffixes = ("trace.csv", "transmissions.csv", "stats.json")
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}_{suffix}" for stem in ("a", "b") for suffix in sorted(suffixes)]
        for suffix in suffixes:
            assert (out / f"a_{suffix}").read_bytes() == (out / f"b_{suffix}").read_bytes()

    def test_directory_rerun_skips_its_own_outputs(self, tmp_path):
        # With no --out-dir each run writes <stem>_stats.json next to <stem>.json; a
        # second run of the directory must not read it as a scenario.
        (tmp_path / "clear10.json").write_bytes((REPO_SCENARIO.parent / "clear10.json").read_bytes())
        for _ in range(2):
            assert main(["simulate", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clear10.json", "clear10_stats.json", "clear10_trace.csv",
            "clear10_transmissions.csv"]

    def test_directory_batch_runs_past_a_failure(self, tmp_path, sec6_doc, capsys):
        (tmp_path / "a_bad.json").write_text("{\"plant\": {}}")
        (tmp_path / "b_good.json").write_text(json.dumps(sec6_doc))
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path), "--out-dir", str(out)]) == 2
        assert (out / "b_good_stats.json").exists()
        assert "error:" in capsys.readouterr().err

    def test_trigger_constants_built_once_per_simulate(self, tmp_path, monkeypatch):
        calls = {"trigger_constants": [], "admissibility": 0, "entry_margin": []}
        constants = etcsim.sim.trigger_constants
        check = etcsim.sim.check_admissibility
        entry_margin = etcsim.sim.blackout_entry_margin

        def counting_constants(plant, config, pmax):
            calls["trigger_constants"].append(pmax)
            return constants(plant, config, pmax)

        def counting_check(scenario):
            calls["admissibility"] += 1
            return check(scenario)

        def counting_entry_margin(plant, blackout_len):
            calls["entry_margin"].append(blackout_len)
            return entry_margin(plant, blackout_len)

        monkeypatch.setattr(etcsim.sim, "trigger_constants", counting_constants)
        monkeypatch.setattr(etcsim.sim, "check_admissibility", counting_check)
        monkeypatch.setattr(etcsim.cli, "check_admissibility", counting_check)
        monkeypatch.setattr(etcsim.sim, "blackout_entry_margin", counting_entry_margin)
        assert main(["simulate", str(REPO_SCENARIO), "--out-dir", str(tmp_path)]) == 0
        assert calls["trigger_constants"] == [8]  # one table, p = 1..pmax
        assert calls["admissibility"] == 1
        assert calls["entry_margin"] == [2.0, 2.0, 2.0]  # once per blackout

    def test_unit_violation_time_root_found_once_per_scenario(self, monkeypatch):
        calls = []
        root_find = etcsim.triggers.time_to_perf_violation

        def counting_root_find(plant, h0, eps0, *args, **kwargs):
            calls.append((h0, eps0))
            return root_find(plant, h0, eps0, *args, **kwargs)

        monkeypatch.setattr(etcsim.triggers, "time_to_perf_violation", counting_root_find)
        scenario, doc = load_scenario(REPO_SCENARIO)
        assert "T_fraction_of_gamma1" in doc["trigger"]
        scenario.rule  # its tables read the plant's gamma1
        assert calls == [(1.0, 1.0)]
        assert (scenario.trigger.lookahead
                == doc["trigger"]["T_fraction_of_gamma1"] * scenario.plant.gamma1)


class TestStreamedTrace:
    """A run of ``_STREAM_MIN_ROWS`` sample rows or more streams its trace CSV to a forked
    writer; it writes the in-process writer's bytes, and ``main`` returns with no child and
    no ``*.part`` file left, whichever way the run ends."""

    @staticmethod
    def simulate(monkeypatch, target, out, streamed, *flags):
        monkeypatch.setattr(etcsim.cli, "_STREAM_MIN_ROWS", 0 if streamed else math.inf)
        return main(["simulate", str(target), "--out-dir", str(out), *flags])

    @staticmethod
    def document(name, sec6_doc, tmp_path):
        """A bundled scenario; clear60 at a bench seed; sec6 with every rate x10, which
        exits 5 (the breach of ``test_guarantee_breach_writes_the_whole_run``); or sec6
        with V_d(0) below V(x0), which breaks h <= 1 at its first row."""
        if name in ("sec6", "clear10", "jordan4"):
            return REPO_SCENARIO.with_name(f"{name}.json")
        if name.startswith("clear60"):
            bench = runpy.run_path(str(REPO_SCENARIO.parents[1] / "bench" / "scenarios.py"))
            return bench["write_scenario"]("clear60", int(name[-1]), REPO_SCENARIO.parents[1],
                                           tmp_path)
        doc = copy.deepcopy(sec6_doc)
        if name == "fast":
            for slot in doc["channel"]["slots"]:
                slot["R"] *= 10
        else:
            doc["plant"]["Vd0_factor"] = 0.9
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("name,code", [
        ("sec6", 0), ("clear10", 0), ("jordan4", 0), ("clear60_s0", 0), ("clear60_s1", 0),
        ("fast", 5), ("tight", 4)])
    def test_streamed_bytes_equal_in_process_bytes(self, tmp_path, monkeypatch, capsys,
                                                   sec6_doc, name, code):
        path = self.document(name, sec6_doc, tmp_path)
        for streamed in (True, False):
            out = tmp_path / f"streamed_{streamed}"
            assert self.simulate(monkeypatch, path, out, streamed, "--force") == code
            assert_no_child_or_part(out)
        for suffix in ("trace.csv", "transmissions.csv", "stats.json"):
            streamed, in_process = (tmp_path / f"streamed_{side}" / f"{path.stem}_{suffix}"
                                    for side in (True, False))
            assert streamed.read_bytes() == in_process.read_bytes(), suffix
        with (tmp_path / "streamed_True" / f"{path.stem}_trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        if name == "fast":
            assert float(rows[-1]["t"]) == 20.0
        assert (len(rows) == 0) == (name == "tight")

    @pytest.mark.parametrize("reads", [False, True])
    def test_failed_writer_exits_2_with_no_trace(self, tmp_path, monkeypatch, capsys, reads):
        # The child fails before reading a row (the run's next write finds the pipe broken)
        # or after reading them all (the child's exit status tells the run).
        def failing(path, n, blocks):  # the child's writer: part of a file, then a failure
            path.write_text("t,x1\r\n")
            if reads:
                for _ in blocks:
                    pass
            raise OSError("no space left")

        monkeypatch.setattr(etcsim.cli, "_write_trace_blocks", failing)
        out = tmp_path / "out"
        assert self.simulate(monkeypatch, REPO_SCENARIO, out, True) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "sec6_trace.csv").exists()
        assert_no_child_or_part(out)

    def test_run_without_a_trace_leaves_the_old_trace(self, tmp_path, monkeypatch, capsys):
        # The finished run's check of its transmissions fails with an error that carries no
        # trace: the streamed rows are dropped, and the trace an earlier run wrote stays.
        def failing_check(transmissions, schedule):
            raise etcsim.errors.NumericalError("checked late")

        monkeypatch.setattr(etcsim.sim, "validate_sequence", failing_check)
        out = tmp_path / "out"
        out.mkdir()
        (out / "sec6_trace.csv").write_text("an earlier run's trace")
        assert self.simulate(monkeypatch, REPO_SCENARIO, out, True) == 2
        assert "error: checked late" in capsys.readouterr().err
        assert (out / "sec6_trace.csv").read_text() == "an earlier run's trace"
        assert sorted(p.name for p in out.iterdir()) == ["sec6_trace.csv"]
        assert_no_child_or_part(out)

    def test_directory_with_runs_on_both_sides_of_the_threshold(self, tmp_path, monkeypatch,
                                                                 capsys):
        # sec6 samples 2,000 rows and streams; jordan4 samples 400 and does not.
        for name in ("sec6", "jordan4"):
            shutil.copy(REPO_SCENARIO.with_name(f"{name}.json"), tmp_path)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert main(["simulate", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 0
        assert len(forks) == 1
        assert_no_child_or_part(tmp_path)
        assert self.simulate(monkeypatch, tmp_path, tmp_path / "in_process", False) == 0
        assert len(forks) == 1
        for name in ("sec6", "jordan4"):
            for suffix in ("trace.csv", "transmissions.csv", "stats.json"):
                assert ((tmp_path / "out" / f"{name}_{suffix}").read_bytes()
                        == (tmp_path / "in_process" / f"{name}_{suffix}").read_bytes())


def _replace_first_slot(doc, slot):
    doc["channel"]["slots"][0] = slot


def _beta_for_beta_fraction(doc, beta):
    del doc["plant"]["beta_fraction"]
    doc["plant"]["beta"] = beta


class TestInputChecksThroughCli:
    """Each check on a scenario document, reached through ``etcsim simulate``: exit code and
    message, with nothing written."""

    @pytest.mark.parametrize("mutate,message", [
        # schema
        (lambda d: d["trigger"].update(sigma=True), "trigger.sigma: expected a number, got True"),
        (lambda d: d["trigger"].update(sigma=[0.06]),
         "trigger.sigma: expected a number, got list"),
        (lambda d: d["sim"].update(x0=6), "sim.x0: expected a vector (list)"),
        (lambda d: d["plant"].pop("beta_fraction"),
         "plant: one of ('beta', 'beta_fraction') is required"),
        (lambda d: d.update(output={}), "unknown sections: ['output']"),
        (lambda d: d["plant"].update(bogus=1), "plant: unknown fields ['bogus']"),
        (lambda d: d["channel"].update(bogus=1), "channel: unknown fields ['bogus']"),
        (lambda d: d["channel"]["slots"][0].update(bogus=1),
         "channel.slots[0]: unknown fields ['bogus']"),
        (lambda d: d["channel"].update(slots=[]), "channel.slots: expected a nonempty list"),
        (lambda d: _replace_first_slot(d, [0.0, 2.44, 3000, 8]),
         "channel.slots[0]: expected an object"),
        (lambda d: d["channel"]["slots"][0].update(theta_end=0.0),
         "channel.slots[0]: theta_end must exceed theta_start"),
        (lambda d: d["sim"].update(packet_policy="all_bits"),
         "sim.packet_policy: expected 'max_bits' or 'min_bits'"),
        # configuration
        (lambda d: d["channel"].update(n=3), "channel and plant state dimensions differ"),
        (lambda d: d["sim"].update(delay_factor=1.5), "delay_factor must lie in [0, 1]"),
        (lambda d: d["channel"]["slots"][0].update(theta_start=1.0),
         "schedule must start at t0 = 0"),
        (lambda d: d["channel"]["slots"][0].update(R=-1), "rates must be nonnegative"),
        (lambda d: d["plant"].update(A=[[1, -2, 0], [1, 4, 0]]), "A must be square"),
        (lambda d: d["plant"].update(K=[[2, -8, 0]]), "K must be m x n"),
        (lambda d: d["plant"].update(Q=[[1]]), "Q must be n x n"),
        (lambda d: d["plant"].update(beta_fraction=-0.5), "beta_fraction must be positive"),
        (lambda d: _beta_for_beta_fraction(d, -1), "beta must be positive"),
        (lambda d: d["trigger"].update(sigma=1.5), "sigma must lie in (0, 1)"),
        (lambda d: d["trigger"].update(sigma1=0), "sigma1 must lie in (0, 1)"),
    ])
    def test_document_check_exit_code(self, tmp_path, sec6_doc, capsys, mutate, message):
        doc = copy.deepcopy(sec6_doc)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "scenario must be a JSON object"),
        ('{"plant": ', "invalid JSON at line 1: Expecting value"),
    ])
    def test_document_not_an_object_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("force", [False, True])
    def test_one_blackout_slot_exit_code(self, tmp_path, sec6_doc, capsys, force):
        # pi_bar = 0 throughout: admissibility fails at t0, and a forced run has no slot to
        # send in.
        doc = copy.deepcopy(sec6_doc)
        doc["channel"]["slots"] = [{"theta_start": 0.0, "theta_end": 20.0, "R": 3000,
                                    "pi_bar": 0}]
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["simulate", str(path), "--out-dir", str(out)] + ["--force"] * force
        assert main(argv) == (2 if force else 3)
        captured = capsys.readouterr()
        if force:
            assert captured.err == "error: schedule has no usable slot\n"
        else:
            assert "[FAIL] initial_cap_positive" in captured.out
        assert not out.exists()

    def test_directory_without_scenarios_exit_code(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no scenario here")
        assert main(["simulate", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"no scenario files in {tmp_path}\n"

    def test_default_sample_step_is_horizon_over_2000(self, tmp_path):
        # jordan4 runs 4 s: without sample_step it writes the files of sample_step = 0.002.
        doc = json.loads(REPO_SCENARIO.with_name("jordan4.json").read_text())
        del doc["sim"]["sample_step"]
        (tmp_path / "default.json").write_text(json.dumps(doc))
        doc["sim"]["sample_step"] = 0.002
        (tmp_path / "explicit.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path), "--out-dir", str(out)]) == 0
        for suffix in ("trace.csv", "transmissions.csv", "stats.json"):
            default, explicit = (out / f"{stem}_{suffix}" for stem in ("default", "explicit"))
            assert default.read_bytes() == explicit.read_bytes()
        assert len((out / "default_trace.csv").read_text().splitlines()) > 2000
