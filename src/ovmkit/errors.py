"""Exception types shared across the toolkit."""


class OvmError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(OvmError):
    """Malformed or out-of-range input."""


class NotPositive(OvmError):
    """A matrix required to be positive semidefinite is not."""


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
    """The target operator A lies outside {sum_k h_k M_k : 0 <= h_k <= 1}.

    Raised with a certificate anyone can recheck in O(m d^2): a Hermitian
    ``witness`` W and ``gap`` = tr(W A) - sum_k max(0, tr(W M_k)) > 0.  The
    sum is the largest tr(W B) over that set, so no B in it equals A."""

    def __init__(self, message, witness=None, gap=None):
        self.witness = witness
        self.gap = gap
        super().__init__(message)


class NumericalFailure(OvmError):
    """An invariant a solver relies on failed under floating point, e.g. a
    phase-1 optimum is positive on a target in the range or a loop stopped
    making progress."""


class SizeLimit(OvmError):
    """An input past one of opcore's named size limits, raised before the
    work starts: a phase-1 program with more entries than PROGRAM_ENTRIES,
    a certificate with more trials than CERT_TRIALS, an enumeration of
    more items than ENUMERATION_ITEMS, or a (k, d, d) stack made from a
    bare dimension with more entries than STACK_ENTRIES."""
