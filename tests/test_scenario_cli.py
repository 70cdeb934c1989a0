import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest

import etcsim.cli
import etcsim.sim
import etcsim.triggers
from etcsim.cli import main
from etcsim.errors import ConfigurationError, SchemaError
from etcsim.presets import sec6_scenario
from etcsim.scenario import (
    build_scenario,
    dump_document,
    load_document,
    load_scenario,
    normalize_document,
)

REPO_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "sec6.json"


@pytest.fixture(scope="module")
def sec6_doc():
    return load_document(REPO_SCENARIO)


class TestSchema:
    def test_normalization_idempotent(self, sec6_doc):
        assert normalize_document(sec6_doc) == sec6_doc

    def test_dump_load_round_trip(self, sec6_doc, tmp_path):
        out = tmp_path / "copy.json"
        dump_document(sec6_doc, out)
        assert load_document(out) == sec6_doc
        dump_document(load_document(out), out)
        assert load_document(out) == sec6_doc

    def test_decimal_strings_accepted(self, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"]["horizon"] = "20.0"
        doc["plant"]["a"] = "1.2"
        assert normalize_document(doc) == sec6_doc

    def test_bundled_scenario_matches_preset(self, sec6_doc):
        scn = build_scenario(sec6_doc)
        ref = sec6_scenario()
        assert np.allclose(scn.plant.P, ref.plant.P, atol=0)
        assert scn.plant.vd0 == ref.plant.vd0
        assert np.array_equal(scn.schedule.theta, ref.schedule.theta)
        assert np.array_equal(scn.schedule.caps, ref.schedule.caps)
        assert scn.trigger == ref.trigger
        assert scn.d_e0 == ref.d_e0
        assert scn.horizon == ref.horizon

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
        (lambda d: d["sim"].update(scan_step="nan"), "sim.scan_step"),
        (lambda d: d["plant"].update(Vd0_factor="inf"), "plant.Vd0_factor"),
        (lambda d: d["sim"].update(horizon=float("nan")), "sim.horizon"),  # JSON NaN
        (lambda d: d["trigger"].update(sigma="-inf"), "trigger.sigma"),
    ])
    def test_schema_errors_carry_field_context(self, sec6_doc, mutate, fragment):
        doc = copy.deepcopy(sec6_doc)
        mutate(doc)
        with pytest.raises(SchemaError, match=fragment):
            normalize_document(doc)

    def test_json_nan_literal_rejected(self, sec6_doc, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(sec6_doc).replace('"horizon": 20.0', '"horizon": NaN'))
        with pytest.raises(SchemaError, match="sim.horizon"):
            load_document(path)

    @pytest.mark.parametrize("field,value", [
        ("sample_step", 0), ("sample_step", -0.01), ("scan_step", 0), ("scan_step", -1),
    ])
    def test_nonpositive_steps_rejected(self, sec6_doc, field, value):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"][field] = value
        with pytest.raises(ConfigurationError, match=field):
            build_scenario(doc)


class TestCli:
    def test_constants_and_triggers_and_capacity(self, capsys):
        assert main(["constants", str(REPO_SCENARIO)]) == 0
        assert main(["triggers", str(REPO_SCENARIO)]) == 0
        assert main(["capacity", str(REPO_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "2.25" in out and "delay_floor" in out and "lp_floor" in out

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

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_trace_csv_matches_cell_by_cell_writer(self, request, tmp_path, name):
        trace = request.getfixturevalue(f"{name}_trace")
        columns = [trace.t[:, None], trace.x, trace.x_hat] + [
            getattr(trace, c)[:, None] for c in etcsim.sim._ROW_COLUMNS]
        with (tmp_path / "reference.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x1", "x2", "xhat1", "xhat2", "V", "Vd", "hpf", "eps", "hch",
                             "de", "Phi", "psi", "Shat", "L3"])
            for i in range(trace.t.size):
                writer.writerow([etcsim.cli._fmt(v) for col in columns for v in col[i]])
        etcsim.cli.write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"plant\": {}}")
        assert main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize("step", ["-1", "0", "nan"])
    def test_nonpositive_scan_step_exit_code(self, tmp_path, step):
        code = main(["simulate", str(REPO_SCENARIO), "--out-dir", str(tmp_path),
                     "--scan-step", step])
        assert code == 2
        assert not list(tmp_path.iterdir())

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

    def test_directory_batch(self, tmp_path, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"].pop("output")  # fall back to per-file output names
        for name in ("one.json", "two.json"):
            (tmp_path / name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path), "--out-dir", str(out)]) == 0
        assert (out / "one_trace.csv").exists()
        assert (out / "two_trace.csv").exists()

    def test_directory_batch_parallel_jobs(self, tmp_path, sec6_doc):
        doc = copy.deepcopy(sec6_doc)
        doc["sim"].pop("output")
        doc["sim"]["horizon"] = 1.0
        for name in ("one.json", "two.json"):
            (tmp_path / name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path), "--out-dir", str(out), "--jobs", "2"]) == 0
        for stem in ("one", "two"):
            for suffix in ("trace.csv", "transmissions.csv", "stats.json"):
                assert (out / f"{stem}_{suffix}").exists(), (stem, suffix)

    def test_trigger_constants_built_once_per_simulate(self, tmp_path, monkeypatch):
        calls = {"delay_floor": [], "admissibility": 0}
        delay_floor = etcsim.triggers.delay_floor
        check = etcsim.sim.check_admissibility

        def counting_delay_floor(plant, T, p, *args, **kwargs):
            calls["delay_floor"].append(p)
            return delay_floor(plant, T, p, *args, **kwargs)

        def counting_check(scenario):
            calls["admissibility"] += 1
            return check(scenario)

        monkeypatch.setattr(etcsim.triggers, "delay_floor", counting_delay_floor)
        monkeypatch.setattr(etcsim.sim, "check_admissibility", counting_check)
        monkeypatch.setattr(etcsim.cli, "check_admissibility", counting_check)
        assert main(["simulate", str(REPO_SCENARIO), "--out-dir", str(tmp_path)]) == 0
        assert sorted(calls["delay_floor"]) == list(range(1, 9))  # p = 1..pmax
        assert calls["admissibility"] == 1

    def test_unit_violation_time_root_found_once_per_scenario(self, monkeypatch):
        calls = []
        root_find = etcsim.triggers.time_to_perf_violation

        def counting_root_find(plant, h0, eps0, *args, **kwargs):
            calls.append((h0, eps0))
            return root_find(plant, h0, eps0, *args, **kwargs)

        monkeypatch.setattr(etcsim.triggers, "time_to_perf_violation", counting_root_find)
        scenario, doc = load_scenario(REPO_SCENARIO)
        assert "T_fraction_of_gamma1" in doc["trigger"]
        rule = scenario.rule
        assert calls == [(1.0, 1.0)]
        assert scenario.trigger.lookahead == doc["trigger"]["T_fraction_of_gamma1"] * rule.gamma1
