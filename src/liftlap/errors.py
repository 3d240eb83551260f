"""Exception types shared across the package."""


class LiftlapError(Exception):
    """Base class for all liftlap errors."""


class MalformedInputError(LiftlapError):
    """Construction input violates a documented precondition."""


class DimensionError(LiftlapError):
    """An operation was asked for an out-of-range dimension."""


class WeightError(LiftlapError):
    """Non-positive, zero, or missing face/incidence weight."""


class VoltageError(LiftlapError):
    """Missing or ill-formed permutation voltage."""


class CocycleError(LiftlapError):
    """Edge voltages are inconsistent around a 2-face.

    ``witness`` is the offending 2-face.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoveringViolation(LiftlapError):
    """A covering axiom failed.

    ``kind`` is a short machine-readable tag, ``witness`` the face (or
    face pair) exhibiting the failure.
    """

    def __init__(self, kind, message, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class GroupStructureError(LiftlapError):
    """The voltage group lacks a property required by the operation."""


class DecompositionError(LiftlapError):
    """Numerical block decomposition could not certify its residual."""


class EigensolverError(LiftlapError):
    """Dense eigensolver failed to converge or produced a non-real spectrum."""
