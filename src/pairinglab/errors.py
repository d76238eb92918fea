"""Exception hierarchy shared by all modules."""


class PairingLabError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteValue(PairingLabError):
    """An evaluator produced NaN or infinity where a finite number was required."""


class ToleranceNotMet(PairingLabError):
    """Adaptive refinement stalled above the requested tolerance."""


class AssumptionViolation(PairingLabError):
    """A vector field violates one of its declared structural assumptions."""

    def __init__(self, clause, message):
        self.clause = clause
        super().__init__(f"[{clause}] {message}")


class DegenerateLevel(PairingLabError):
    """The requested level coincides with a plateau value of the function."""


class WindowTooLarge(PairingLabError):
    """Mollification radius exceeds the distance to the domain boundary."""


class FormMismatch(PairingLabError):
    """The two equivalent forms of the distributional pairing disagree.

    Raised only by pairing_distributional(..., form_check=True); no
    scenario check asks for the form check."""


class CrossValidationMismatch(PairingLabError):
    """Two independent constructions of the same measure disagree."""


class CylAverageDiverged(PairingLabError):
    """A cylindrical average required by a construction did not converge."""


class UnknownCheck(PairingLabError):
    """The requested check name is not registered."""


class SpecError(PairingLabError):
    """A JSON scenario or component spec could not be parsed."""
