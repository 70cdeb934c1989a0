"""Scenario file loading, validation and serialization.

The on-disk format is a single JSON document with ``plant``, ``channel``,
``trigger`` and ``sim`` sections (schema documented in the README).
Numeric fields accept exact decimal strings as well as JSON numbers,
but no NaN or infinity.
Derived fields resolve in one pass: ``beta_fraction`` against the
certified decay rate, ``Vd0_factor`` against the initial Lyapunov value,
``de0_factor`` against the initial estimate error and
``T_fraction_of_gamma1`` against the unit-level violation time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channel import ChannelSchedule
from .errors import ConfigurationError, EtcsimError, SchemaError
from .linalg import inf_norm
from .plant import build_plant
from .sim import Scenario
from .triggers import TriggerConfig, resolve_lookahead

_SECTIONS = ("plant", "channel", "trigger", "sim")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or value is None:
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise SchemaError(f"{where}: {value!r} is not a decimal number") from None
    else:
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    if not math.isfinite(number):
        raise SchemaError(f"{where}: {value!r} is not a finite number")
    return number


def _matrix(value, where: str) -> list[list[float]]:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{where}: expected a matrix (list of rows)")
    width = len(value[0])
    out = []
    for i, row in enumerate(value):
        if len(row) != width:
            raise SchemaError(f"{where}: ragged row {i}")
        out.append([_number(v, f"{where}[{i}]") for v in row])
    return out


def _vector(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a vector (list)")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _one_of(section: dict, where: str, *names, required=True):
    present = [n for n in names if n in section]
    if len(present) > 1:
        raise SchemaError(f"{where}: give only one of {names}")
    if not present:
        if required:
            raise SchemaError(f"{where}: one of {names} is required")
        return None, None
    return present[0], section.pop(present[0])


def normalize_document(doc: dict) -> dict:
    """Validated document with every numeric field converted to float.

    Normalization is idempotent, so loading and re-serializing a
    scenario file reproduces it exactly.
    """
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise SchemaError(f"unknown sections: {sorted(unknown)}")
    for name in _SECTIONS:
        if name not in doc or not isinstance(doc[name], dict):
            raise SchemaError(f"missing section {name!r}")

    plant = dict(doc["plant"])
    out_plant = {key: _matrix(plant.pop(key, None), f"plant.{key}")
                 for key in ("A", "B", "K", "Q")}
    out_plant["a"] = _number(plant.pop("a", None), "plant.a")
    key, val = _one_of(plant, "plant", "beta", "beta_fraction")
    out_plant[key] = _number(val, f"plant.{key}")
    key, val = _one_of(plant, "plant", "Vd0", "Vd0_factor")
    out_plant[key] = _number(val, f"plant.{key}")
    if plant:
        raise SchemaError(f"plant: unknown fields {sorted(plant)}")

    channel = dict(doc["channel"])
    n = channel.pop("n", None)
    if not isinstance(n, int) or n < 1:
        raise SchemaError("channel.n: expected a positive integer")
    slots_in = channel.pop("slots", None)
    if not isinstance(slots_in, list) or not slots_in:
        raise SchemaError("channel.slots: expected a nonempty list")
    slots = []
    prev_end = None
    for i, slot in enumerate(slots_in):
        if not isinstance(slot, dict):
            raise SchemaError(f"channel.slots[{i}]: expected an object")
        extra = set(slot) - {"theta_start", "theta_end", "R", "pi_bar"}
        if extra:
            raise SchemaError(f"channel.slots[{i}]: unknown fields {sorted(extra)}")
        start = _number(slot.get("theta_start"), f"channel.slots[{i}].theta_start")
        end = _number(slot.get("theta_end"), f"channel.slots[{i}].theta_end")
        rate = _number(slot.get("R"), f"channel.slots[{i}].R")
        cap = slot.get("pi_bar")
        if not isinstance(cap, int) or cap < 0:
            raise SchemaError(f"channel.slots[{i}].pi_bar: expected a nonnegative integer")
        if end <= start:
            raise SchemaError(f"channel.slots[{i}]: theta_end must exceed theta_start")
        if prev_end is not None and start != prev_end:
            raise SchemaError(f"channel.slots[{i}]: gap or overlap at theta={start}")
        prev_end = end
        slots.append({"theta_start": start, "theta_end": end, "R": rate, "pi_bar": cap})
    if channel:
        raise SchemaError(f"channel: unknown fields {sorted(channel)}")
    out_channel = {"n": n, "slots": slots}

    trig = dict(doc["trigger"])
    out_trig = {}
    key, val = _one_of(trig, "trigger", "T", "T_fraction_of_gamma1")
    out_trig[key] = _number(val, f"trigger.{key}")
    out_trig["sigma"] = _number(trig.pop("sigma", None), "trigger.sigma")
    out_trig["sigma1"] = _number(trig.pop("sigma1", None), "trigger.sigma1")
    if "root_tol" in trig:
        out_trig["root_tol"] = _number(trig.pop("root_tol"), "trigger.root_tol")
    if trig:
        raise SchemaError(f"trigger: unknown fields {sorted(trig)}")

    sim = dict(doc["sim"])
    out_sim = {}
    mode = sim.pop("mode", None)
    if mode not in ("no_blackout", "blackout"):
        raise SchemaError("sim.mode: expected 'no_blackout' or 'blackout'")
    out_sim["mode"] = mode
    out_sim["x0"] = _vector(sim.pop("x0", None), "sim.x0")
    out_sim["xhat0"] = _vector(sim.pop("xhat0", None), "sim.xhat0")
    key, val = _one_of(sim, "sim", "de0", "de0_factor")
    out_sim[key] = _number(val, f"sim.{key}")
    out_sim["horizon"] = _number(sim.pop("horizon", None), "sim.horizon")
    for opt in ("delay_factor", "scan_step", "sample_step"):
        if opt in sim and sim[opt] is not None:
            out_sim[opt] = _number(sim.pop(opt), f"sim.{opt}")
        else:
            sim.pop(opt, None)
    policy = sim.pop("packet_policy", None)
    if policy is not None:
        if policy not in ("max_bits", "min_bits"):
            raise SchemaError("sim.packet_policy: expected 'max_bits' or 'min_bits'")
        out_sim["packet_policy"] = policy
    output = sim.pop("output", None)
    if output is not None:
        if not isinstance(output, dict):
            raise SchemaError("sim.output: expected an object")
        extra = set(output) - {"trace_csv", "transmissions_csv", "stats_json"}
        if extra:
            raise SchemaError(f"sim.output: unknown fields {sorted(extra)}")
        out_sim["output"] = {k: str(v) for k, v in output.items()}
    if sim:
        raise SchemaError(f"sim: unknown fields {sorted(sim)}")

    return {"plant": out_plant, "channel": out_channel,
            "trigger": out_trig, "sim": out_sim}


def load_document(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return normalize_document(raw)


def dump_document(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(normalize_document(doc), indent=2) + "\n")


def build_scenario(doc: dict) -> Scenario:
    """Instantiate the runtime objects described by a normalized document."""
    doc = normalize_document(doc)
    p, ch, tg, sm = doc["plant"], doc["channel"], doc["trigger"], doc["sim"]

    plant = build_plant(A=p["A"], B=p["B"], K=p["K"], Q=p["Q"], a=p["a"],
                        beta=p.get("beta"), beta_fraction=p.get("beta_fraction"))
    x0 = np.asarray(sm["x0"], dtype=float)
    x_hat0 = np.asarray(sm["xhat0"], dtype=float)
    if "Vd0" in p:
        plant = plant.with_vd0(p["Vd0"])
    else:
        plant = plant.with_vd0(p["Vd0_factor"] * plant.lyapunov_value(x0))

    theta = [ch["slots"][0]["theta_start"]] + [s["theta_end"] for s in ch["slots"]]
    schedule = ChannelSchedule(theta=theta,
                               rates=[s["R"] for s in ch["slots"]],
                               caps=[s["pi_bar"] for s in ch["slots"]],
                               n=ch["n"])

    root_tol = tg.get("root_tol", 1e-9)
    if "T" in tg:
        lookahead = tg["T"]
    else:
        lookahead = resolve_lookahead(plant, tg["T_fraction_of_gamma1"], root_tol)
    trigger = TriggerConfig(lookahead=lookahead, sigma=tg["sigma"],
                            sigma1=tg["sigma1"], root_tol=root_tol)

    de0 = sm["de0"] if "de0" in sm else sm["de0_factor"] * inf_norm(x0 - x_hat0)
    return Scenario(
        plant=plant,
        schedule=schedule,
        trigger=trigger,
        mode=sm["mode"],
        x0=x0,
        x_hat0=x_hat0,
        d_e0=de0,
        delay_factor=sm.get("delay_factor", 1.0),
        packet_policy=sm.get("packet_policy", "max_bits"),
        horizon=sm["horizon"],
        scan_step=sm.get("scan_step"),
        sample_step=sm.get("sample_step"),
    )


def load_scenario(path) -> tuple[Scenario, dict]:
    """Scenario plus its normalized document (for output-path options)."""
    doc = load_document(path)
    try:
        return build_scenario(doc), doc
    except EtcsimError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(str(exc)) from exc
