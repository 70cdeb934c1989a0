"""Scenario files: one JSON document with ``plant``, ``channel``, ``trigger``
and ``sim`` sections (schema documented in the README).

``build_scenario`` reads each field once, checking the whole document
before it builds anything; numbers may be exact decimal strings, but not
NaN or infinity.  Derived fields then resolve against the built plant:
``beta_fraction`` against the certified decay rate, ``Vd0_factor``
against the initial Lyapunov value, ``de0_factor`` against the initial
estimate error and ``T_fraction_of_gamma1`` against the unit-level
violation time.  ``load_scenario`` parses a file and builds from it.
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
from .triggers import TriggerConfig

_SECTIONS = ("plant", "channel", "trigger", "sim")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or value is None:
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except ValueError:
        raise SchemaError(f"{where}: {value!r} is not a decimal number") from None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
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


def _vector(value, where: str, length: int) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a vector (list)")
    if len(value) != length:
        raise SchemaError(f"{where}: expected {length} entries, one per state, got {len(value)}")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _one_of(section: dict, where: str, *names) -> tuple[str, float]:
    present = [n for n in names if n in section]
    if len(present) > 1:
        raise SchemaError(f"{where}: give only one of {names}")
    if not present:
        raise SchemaError(f"{where}: one of {names} is required")
    return present[0], _number(section.pop(present[0]), f"{where}.{present[0]}")


def build_scenario(doc: dict) -> Scenario:
    """Check a parsed scenario document, then build the ``Scenario`` it describes.

    The whole document is checked against the schema before any runtime
    object is built, so a ``SchemaError`` wins over a plant that would be
    rejected.  The runtime objects raise their own typed errors, and any
    other ``ValueError`` or ``TypeError`` becomes a ``ConfigurationError``.
    ``doc`` is not modified.
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
    A, B, K, Q = (_matrix(plant.pop(key, None), f"plant.{key}") for key in ("A", "B", "K", "Q"))
    a = _number(plant.pop("a", None), "plant.a")
    beta_key, beta = _one_of(plant, "plant", "beta", "beta_fraction")
    vd0_key, vd0 = _one_of(plant, "plant", "Vd0", "Vd0_factor")
    if plant:
        raise SchemaError(f"plant: unknown fields {sorted(plant)}")

    channel = dict(doc["channel"])
    n = channel.pop("n", None)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("channel.n: expected a positive integer")
    slots = channel.pop("slots", None)
    if not isinstance(slots, list) or not slots:
        raise SchemaError("channel.slots: expected a nonempty list")
    theta, rates, caps = [], [], []
    for i, slot in enumerate(slots):
        if not isinstance(slot, dict):
            raise SchemaError(f"channel.slots[{i}]: expected an object")
        extra = set(slot) - {"theta_start", "theta_end", "R", "pi_bar"}
        if extra:
            raise SchemaError(f"channel.slots[{i}]: unknown fields {sorted(extra)}")
        start, end, rate = (_number(slot.get(key), f"channel.slots[{i}].{key}")
                            for key in ("theta_start", "theta_end", "R"))
        cap = slot.get("pi_bar")
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise SchemaError(f"channel.slots[{i}].pi_bar: expected a nonnegative integer")
        if end <= start:
            raise SchemaError(f"channel.slots[{i}]: theta_end must exceed theta_start")
        if theta and start != theta[-1]:
            raise SchemaError(f"channel.slots[{i}]: gap or overlap at theta={start}")
        theta += [end] if theta else [start, end]
        rates.append(rate)
        caps.append(cap)
    if channel:
        raise SchemaError(f"channel: unknown fields {sorted(channel)}")

    trig = dict(doc["trigger"])
    lookahead_key, lookahead = _one_of(trig, "trigger", "T", "T_fraction_of_gamma1")
    sigma = _number(trig.pop("sigma", None), "trigger.sigma")
    sigma1 = _number(trig.pop("sigma1", None), "trigger.sigma1")
    if trig:
        raise SchemaError(f"trigger: unknown fields {sorted(trig)}")

    sim = dict(doc["sim"])
    design = "blackout" if 0 in caps else "no_blackout"  # a zero-cap slot picks the design
    if sim.pop("mode", design) != design:  # sim.mode is optional
        raise SchemaError(f"sim.mode: the channel's design is {design!r}, "
                          f"not {doc['sim']['mode']!r}")
    x0 = np.asarray(_vector(sim.pop("x0", None), "sim.x0", len(A)))
    x_hat0 = np.asarray(_vector(sim.pop("xhat0", None), "sim.xhat0", len(A)))
    de0_key, de0 = _one_of(sim, "sim", "de0", "de0_factor")
    horizon = _number(sim.pop("horizon", None), "sim.horizon")
    options = {key: sim.pop(key) for key in ("delay_factor", "sample_step") if key in sim}
    options = {key: _number(v, f"sim.{key}") for key, v in options.items() if v is not None}
    policy = sim.pop("packet_policy", None)
    if policy not in (None, "max_bits", "min_bits"):
        raise SchemaError("sim.packet_policy: expected 'max_bits' or 'min_bits'")
    if sim:
        raise SchemaError(f"sim: unknown fields {sorted(sim)}")

    try:
        model = build_plant(A=A, B=B, K=K, Q=Q, a=a, **{beta_key: beta})
        model = model.with_vd0(vd0 if vd0_key == "Vd0" else vd0 * model.lyapunov_value(x0))
        schedule = ChannelSchedule(theta=theta, rates=rates, caps=caps, n=n)
        if lookahead_key == "T_fraction_of_gamma1":
            lookahead *= model.gamma1
        return Scenario(
            plant=model,
            schedule=schedule,
            trigger=TriggerConfig(lookahead=lookahead, sigma=sigma, sigma1=sigma1),
            x0=x0,
            x_hat0=x_hat0,
            d_e0=de0 if de0_key == "de0" else de0 * inf_norm(x0 - x_hat0),
            delay_factor=options.get("delay_factor", 1.0),
            packet_policy=policy or "max_bits",
            horizon=horizon,
            sample_step=options.get("sample_step"),
        )
    except EtcsimError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(str(exc)) from exc


def load_scenario(path) -> tuple[Scenario, dict]:
    """Scenario built from a JSON file, plus the parsed file as it stands."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return build_scenario(doc), doc
