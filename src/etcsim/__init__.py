"""Event-triggered stabilization over time-varying rate-limited channels.

A numpy library modelling an LTI plant stabilized through a
finite-rate channel with scheduled blackouts: dynamic quantization,
trigger-function machinery, data-capacity allocation, and a
deterministic closed-loop simulator, plus a small CLI.
"""

from .capacity import (
    CapacityPlan,
    capacity_fallback,
    capacity_lp_floor,
    slot_plans,
)
from .channel import ChannelSchedule, TransmissionRecord, validate_sequence
from .codec import CodecState, Packet, decode_and_update, encode, initial_state
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    EtcsimError,
    GuaranteeBreachError,
    ObjectiveViolationError,
    SchemaError,
)
from .linalg import ExpKernel, inf_norm, solve_lyapunov, spec_norm, sym_eig_extremes
from .plant import PlantModel, RateConstants, build_plant
from .sim import (
    AdmissibilityReport,
    EventRule,
    Scenario,
    SimTrace,
    Transmission,
    check_admissibility,
    run,
    summarize,
)
from .triggers import (
    TriggerConfig,
    blackout_entry_margin,
    error_threshold,
    perf_bound,
    time_to_perf_violation,
    trigger_constants,
)

__version__ = "0.1.0"
