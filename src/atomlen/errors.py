"""Exception types shared across the package."""


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
