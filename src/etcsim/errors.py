"""Exception hierarchy shared across the package.

Each class carries the CLI exit code of its failure in ``exit_code``,
inherited from the nearest ancestor that sets one: every
``EtcsimError`` exits 2 (schema or configuration problem) unless it is
an ``AdmissibilityError`` (3), an ``ObjectiveViolationError`` (4) or a
``GuaranteeBreachError`` (5).  Invariant, feasibility and causality
breaches found during a run are guarantee breaches, and the engine sets
the ``trace`` of each breach it raises to the run's trace up to it.
"""


class EtcsimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class SchemaError(EtcsimError):
    """A scenario file does not match the documented schema."""


class ConfigurationError(EtcsimError):
    """A structurally valid configuration violates a model assumption."""


class DimensionError(ConfigurationError, ValueError):
    """Matrix or vector dimensions are inconsistent."""


class NotHurwitzError(ConfigurationError):
    """The closed-loop matrix has an eigenvalue with nonnegative real part."""


class DecayMarginError(ConfigurationError):
    """The guarded decay margin is nonpositive; the target rate is infeasible."""


class DomainError(EtcsimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(EtcsimError):
    """A computed result failed its residual or conditioning check."""


class HorizonError(EtcsimError):
    """A channel query lies outside the scheduled horizon."""


class AdmissibilityError(EtcsimError):
    """A scenario failed its pre-run admissibility checks."""

    exit_code = 3

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class ObjectiveViolationError(EtcsimError):
    """The performance ratio exceeded 1 at a trace sample."""

    exit_code = 4


class GuaranteeBreachError(EtcsimError):
    """A theorem-backed guarantee failed at run time (diagnostic state attached)."""

    exit_code = 5

    def __init__(self, message, state=None):
        self.state = state or {}
        super().__init__(message)


class InvariantBreachError(GuaranteeBreachError):
    """An internal state invariant was violated (fail loudly, never clamp)."""


class CausalityError(GuaranteeBreachError):
    """An update was requested before the packet it depends on was sent."""


class FeasibilityError(GuaranteeBreachError):
    """A transmission record violates one of the channel feasibility rules."""
