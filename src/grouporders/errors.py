"""Typed errors shared across the package."""


class GroupOrderError(Exception):
    """Base class for all package errors."""


class GroupMismatch(GroupOrderError):
    """Operands belong to different groups."""


class IntegerOverflow(GroupOrderError):
    """A result entry left the checked 64-bit range."""


class SizeLimitExceeded(GroupOrderError):
    """A window or matrix would exceed the configured size cap."""


class ElementNotInWindow(GroupOrderError):
    """An element was expected inside a window but is missing."""


class DomainNotCovered(GroupOrderError):
    """An operation needs pairs or elements outside the available domain."""


class NotTotal(GroupOrderError):
    """A total order was required."""


class NotRectangular(GroupOrderError):
    """A full rectangular lattice window was required."""


class InnerOrderIncomplete(GroupOrderError):
    """A subgroup pair needed by the coset extension is undecided."""


class StabilizerCollision(GroupOrderError):
    """Two window elements evaluate to the same orbit value."""


class SolveTimeout(GroupOrderError):
    """The solver exceeded its wall-clock budget."""

