"""Exception types shared across the toolkit."""


class OvmError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(OvmError):
    """Malformed or out-of-range input."""


class NotPositive(OvmError):
    """A matrix required to be positive semidefinite is not."""


class NotSelfAdjoint(OvmError):
    """A matrix or step function required to be self-adjoint is not."""


class DimMismatch(OvmError):
    """Operator dimensions disagree."""


class ShapeMismatch(OvmError):
    """A mask or value array does not match the sample space layout."""


class SpaceMismatch(OvmError):
    """Two measures live over different sample spaces."""


class Unsupported(OvmError):
    """Operation not defined for this input class."""


class DerivativeDoesNotExist(OvmError):
    """The operator density with respect to the induced measure is undefined
    on some cell or atom of nonzero mass."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        labels = ", ".join(f"{kind} {idx}" for kind, idx in self.failures)
        super().__init__(f"derivative undefined on: {labels}")


class AtomicObstruction(OvmError):
    """A fractional selection cannot be realized because it would split an
    indivisible cell or mix differing atom selections."""

    def __init__(self, message, cells=()):
        self.cells = tuple(cells)
        super().__init__(message)


class TargetNotInHull(OvmError):
    """The feasibility solver failed to reach the target operator.

    Advisory only: this is not a separation certificate."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class NumericalFailure(OvmError):
    """An invariant a solver relies on failed under floating point, e.g.
    two formulations of one quantity disagree or a loop stopped making
    progress."""


class SizeLimit(OvmError):
    """Instance too large for exhaustive enumeration."""
