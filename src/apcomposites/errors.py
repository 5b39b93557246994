"""Exception hierarchy shared across the package, and its three limit
rules: the sieve cap, the capped search and the output digits.

Exit-code mapping used by the CLI: DomainError (and subclasses) -> 1,
usage errors -> 2 (handled by the argument parser), CapacityError -> 3.

SIEVE_CAP is the largest sieve limit (or progression term) that the
prime counts, the chain's four checks, erdos_kac_samples, the two term
scans and three_composites_4n3 accept: each calls `check_sieve` after
its domain checks, before any work. It is DEFAULT_SIEVE_CAP until a
caller sets it (`SIEVE_CAP.set`, then `reset`), as --max-sieve does.

`first` is the one open-ended search: the least n in [start, cap] that
passes a test, else a CapacityError. The prime-term, admissible-s and
f(k) > 1 searches of `constructions` pass it SEARCH_CAP, and
`explorer.prime_streak` passes SCAN_CAP.
"""

import sys
from contextvars import ContextVar

DEFAULT_SIEVE_CAP = 50_000_000
SIEVE_CAP = ContextVar("SIEVE_CAP", default=DEFAULT_SIEVE_CAP)


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


def check_sieve(param: str, value: int, mult: int | None = None, exp: int = 0) -> None:
    """Refuse `param value` if the sieve limit mult * 2**exp it needs
    (mult defaulting to value) is beyond SIEVE_CAP; an exp beyond the
    cap's bit length is refused as it is, so 2**exp is never built."""
    cap = SIEVE_CAP.get()
    if exp > max(cap, 1).bit_length():
        shown = f"at least 2**{exp}"
    elif (shown := (value if mult is None else mult) << exp) <= cap:
        return
    raise CapacityError(f"{param} {value} needs a sieve to {shown}, the sieve cap is {cap}")


def first(pred, start: int, cap: int, refusal: str) -> int:
    """The least n in [start, cap] with pred(n) true; when there is none,
    a CapacityError(refusal)."""
    for n in range(start, cap + 1):
        if pred(n):
            return n
    raise CapacityError(refusal)


def check_digits(digits: float) -> None:
    """Refuse a result with an integer of at least `digits` digits, an
    estimate from below, a digit past Python's int-to-str limit; a limit
    of 0 disables it. Three builders call it before building, and emit."""
    if (limit := sys.get_int_max_str_digits()) and digits >= limit + 1:
        raise CapacityError(f"the result holds an integer of more than {limit} digits, "
                            "Python's limit for writing one as text")
