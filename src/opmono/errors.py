"""Exception hierarchy shared by all modules.

Every numerical failure mode gets its own class so callers (and the CLI)
can map errors to exit codes without string matching.
"""


class OpmonoError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OpmonoError):
    pass


class ArityMismatch(OpmonoError):
    pass


class NotHermitian(OpmonoError):
    pass


class NotPSD(OpmonoError):
    pass


class NotPositiveDefinite(OpmonoError):
    pass


class SpectrumOutOfDomain(OpmonoError):
    pass


class NotSectorial(OpmonoError):
    pass


class InputNotSectorial(OpmonoError):
    pass


class CoefficientNotPSD(OpmonoError):
    pass


class DominanceViolated(OpmonoError):
    pass


class EliminatedBlockDefective(OpmonoError):
    pass


class DomainViolation(OpmonoError):
    pass


class RotationNotFound(OpmonoError):
    pass


class SectorBoundViolated(OpmonoError):
    pass


class SingularArgument(OpmonoError):
    pass


class NoConvergence(OpmonoError):
    pass


class PoleHit(OpmonoError):
    pass


class StepUnderflow(OpmonoError):
    pass


class ChainNotIncreasing(OpmonoError):
    pass


class NegativeNormalization(OpmonoError):
    pass


class NegativeSlack(OpmonoError):
    pass


class GradientNotPSD(OpmonoError):
    pass


class SupportViolated(OpmonoError):
    pass


class VerificationFailed(OpmonoError):
    pass


class HalfPlaneViolated(OpmonoError):
    pass


class QuadratureInaccurate(OpmonoError):
    pass


class UnknownFunction(OpmonoError):
    pass


class BadConfig(OpmonoError):
    pass


class DataError(OpmonoError):
    """Malformed or unparsable data file."""

