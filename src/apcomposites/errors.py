"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: DomainError (and subclasses) -> 1,
usage errors -> 2 (handled by the argument parser), CapacityError -> 3.
"""


class ApcompositesError(Exception):
    """Base class for all package errors."""


class DomainError(ApcompositesError):
    """Input violates a documented precondition."""


class WrongBranchError(DomainError):
    """A construction was invoked on a progression it does not cover."""


class DegenerateInputError(DomainError):
    """Parameters produce a value in {-1, 0, 1}, which is neither prime
    nor composite."""


class BracketError(DomainError):
    """Root bracket endpoints do not straddle a sign change."""


class CapacityError(ApcompositesError):
    """Work exceeds a configured cap (sieve size, factorization bound,
    scan limit)."""
