"""Exception types shared across the package, and the integer reader whose
refusals they are."""
from operator import index


class AtomlenError(ValueError):
    """Base class for all input/contract violations raised by this package."""


class BadLength(AtomlenError):
    pass


class BadSum(AtomlenError):
    pass


class ResidueClash(AtomlenError):
    pass


class RankMismatch(AtomlenError):
    pass


class DomainViolation(AtomlenError):
    pass


class BadIndex(AtomlenError):
    pass


class BadEll(AtomlenError):
    pass


class NotInDs(AtomlenError):
    pass


class MirrorViolation(AtomlenError):
    pass


class NotPrime(AtomlenError):
    pass


class BudgetExceeded(AtomlenError):
    """An enumeration would exceed the configured budget (ATOMLEN_BUDGET)."""


class SearchFailed(AtomlenError):
    """A search or identity that a theorem guarantees came back empty or
    false: a failed theorem-backed check, not an internal error.  The CLI
    exits 1 for it and 3 for InvariantViolation."""


class InvariantViolation(AtomlenError):
    """An internal exactness invariant broke (e.g. a value that must be an
    integer is not).  Never silently rounded."""


def exact_int(value, what, error=DomainViolation) -> int:
    """value read with operator.index: a float, string or Fraction, which
    int() would truncate or parse and range() would refuse with a bare
    TypeError, raises error with one line."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
