"""Dynamic-quantization encoder/decoder state machine.

Encoder and decoder keep the same state: the controller estimate
``x_hat`` (valid at a base time and propagated by the closed-loop flow),
and the pair (anchor time, step) from which the error bound
``d_e(t) = ||e^{A (t - anchor)}||_inf * step`` is recomputed on demand
rather than integrated.  One packet may be in flight at a time.

Quantization uses a uniform partition of ``[-d_e, d_e]`` per dimension
into ``2^p`` cells centred on the pre-transmission estimate; boundary
points fall to the lower cell and reconstruction returns cell centres,
so one p-bit update divides the instantaneous bound by exactly ``2^p``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CausalityError, DomainError, InvariantBreachError
from .linalg import inf_norm
from .plant import PlantModel

# Relative slack of the codec invariant ``||x - x_hat||_inf <= d_e`` in the encoder's and the
# engine recorder's checks, ``err <= d_e (1 + CHECK_SLACK) + 1e-300``; the absolute 1e-300
# matters only where d_e is below ~1e-290.
CHECK_SLACK = 1e-9
# Most bits per dimension: a cell index plus 1/2 is exact in float64 only below 2^52.
MAX_BITS = 52


@dataclass(frozen=True)
class Packet:
    """Quantized state update: per-dimension cell indices sent at one time."""

    t_k: float
    p_k: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.p_k < 1:
            raise DomainError("a packet needs at least one bit per dimension")
        hi = 1 << self.p_k
        if any(not 0 <= s < hi for s in self.symbols):
            raise DomainError("symbol outside the packet alphabet")


@dataclass(frozen=True)
class CodecState:
    """Shared encoder/decoder state between updates."""

    x_hat: np.ndarray        # estimate at base_time
    base_time: float
    anchor_time: float       # transmit time the current step is anchored to
    step: float              # quantization step delta_k
    in_flight: bool = False

    def x_hat_at(self, plant: PlantModel, t: float) -> np.ndarray:
        """Estimate at time t (no update in between): closed-loop flow of x_hat."""
        return plant.exp_Abar.flow(self.x_hat)(t - self.base_time)

    def d_e(self, plant: PlantModel, t):
        """Error bound at time t (scalar or array), recomputed from the anchor."""
        return plant.exp_A.inf_norm(np.subtract(t, self.anchor_time)) * self.step


def initial_state(x_hat0, d_e0: float, t0: float = 0.0) -> CodecState:
    """State at start of the zoom-in phase: bound d_e0 anchored at t0."""
    if d_e0 < 0:
        raise DomainError("initial error bound must be nonnegative")
    x0 = np.array(x_hat0, dtype=float)
    x0.setflags(write=False)
    return CodecState(x_hat=x0, base_time=t0, anchor_time=t0,
                      step=float(d_e0))


def encode(plant: PlantModel, x, state: CodecState, p: int, t: float) -> Packet:
    """Quantize the current error against the box centred at the estimate.

    The encoder verifies ``||x - x_hat(t)||_inf <= d_e(t)``; a violation
    means a broken invariant upstream and raises rather than clamping.
    """
    if state.in_flight:
        raise InvariantBreachError("a packet is already in flight")
    if p < 1:
        raise DomainError("need at least one bit per dimension")
    x = np.asarray(x, dtype=float)
    x_hat = state.x_hat_at(plant, t)
    bound = state.d_e(plant, t)
    err = x - x_hat
    worst = inf_norm(err)
    if worst > bound * (1.0 + CHECK_SLACK) + 1e-300:
        raise InvariantBreachError(
            f"encoding error {worst:.6g} exceeds bound {bound:.6g} at t={t}")
    cells = 1 << p
    width = 2.0 * bound / cells
    if width == 0.0:
        return Packet(t_k=t, p_k=p, symbols=(0,) * err.size)
    idx = np.minimum(np.maximum(np.ceil((err + bound) / width) - 1.0, 0.0), cells - 1.0)
    return Packet(t_k=t, p_k=p, symbols=tuple(idx.astype(int).tolist()))


def decode_and_update(plant: PlantModel, pkt: Packet, state: CodecState,
                      r_tilde: float) -> CodecState:
    """Apply the controller jump for a received packet at the update time.

    Reconstructs the error as the centre of the signalled cell, jumps the
    estimate with the closed-loop/open-loop split over the update delay,
    and re-anchors the bound at the transmit time with the divided step.
    """
    if r_tilde < pkt.t_k:
        raise CausalityError("update before the packet was transmitted")
    x_hat_tx = state.x_hat_at(plant, pkt.t_k)
    bound_tx = state.d_e(plant, pkt.t_k)
    cells = 1 << pkt.p_k
    width = 2.0 * bound_tx / cells
    centres = -bound_tx + (np.array(pkt.symbols) + 0.5) * width
    delay = r_tilde - pkt.t_k
    jump = plant.exp_Abar.flow(x_hat_tx)(delay) + plant.exp_A.flow(centres)(delay)
    jump.setflags(write=False)
    return CodecState(x_hat=jump, base_time=r_tilde,
                      anchor_time=pkt.t_k, step=bound_tx / cells, in_flight=False)


def mark_in_flight(state: CodecState) -> CodecState:
    return replace(state, in_flight=True)
