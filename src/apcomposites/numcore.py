"""Deterministic primality, factorization, and prime counting.

Everything here is exact integer arithmetic. Primality for arbitrary
integers uses Miller-Rabin with a fixed witness set that is proven
deterministic for n < 3.3e24, so no answer is probabilistic in the
supported range. Bulk membership queries go through a segmented
Eratosthenes sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import CapacityError, DomainError

__all__ = [
    "Progression",
    "Factorization",
    "PrimeTable",
    "sieve",
    "is_prime",
    "factorize",
    "prime_count",
    "prime_count_progression",
]

# Deterministic Miller-Rabin witnesses for n < 3.317e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

DEFAULT_TRIAL_BOUND = 1_000_000
DEFAULT_SEGMENT = 1 << 20


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression a*n + b with nonzero integer step a."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("progression step a must be nonzero")

    def term(self, n: int) -> int:
        return self.a * n + self.b

    @property
    def residue(self) -> int:
        """Offset reduced modulo |a|."""
        return self.b % abs(self.a)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer >= 2, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    @property
    def gpf(self) -> int:
        """Greatest prime factor."""
        return self.factors[-1][0]

    def verify(self) -> bool:
        """Recompute the product and primality of every factor."""
        if self.value < 2:
            return False
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev or not is_prime(p):
                return False
            prev = p
            prod *= p**e
        return prod == self.value


class PrimeTable:
    """Immutable prime membership over [0, limit], with cached counts.

    Built by :func:`sieve`; safe for unlimited concurrent readers. Counts
    read the mask in place: the prefix sums of its whole blocks of
    _COUNT_BLOCK entries are built on the first count, and the partial
    block up to x is counted directly.
    """

    _COUNT_BLOCK = 1 << 16

    def __init__(self, limit: int, membership: np.ndarray):
        self.limit = limit
        self._membership = membership
        self._membership.setflags(write=False)
        self._block_cumsum: np.ndarray | None = None

    @property
    def membership(self) -> np.ndarray:
        return self._membership

    def count(self, x: int) -> int:
        """pi(x) for 0 <= x <= limit."""
        if x < 0 or x > self.limit:
            raise DomainError(f"{x} outside table range [0, {self.limit}]")
        block = self._COUNT_BLOCK
        if self._block_cumsum is None:
            nblocks = (self.limit + 1) // block
            whole = self._membership[: nblocks * block].reshape(nblocks, block)
            self._block_cumsum = np.concatenate(([0], np.cumsum(whole.sum(axis=1))))
        blk = (x + 1) // block
        rem = np.count_nonzero(self._membership[blk * block : x + 1])
        return int(self._block_cumsum[blk]) + int(rem)


def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def sieve(limit: int, segment_size: int = DEFAULT_SEGMENT) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to `limit` inclusive.

    Marking is done one segment at a time so the working set per pass is
    O(segment_size); the result table is independent of segmentation.
    """
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    if segment_size < 2:
        raise DomainError("segment size must be >= 2")

    root = math.isqrt(limit)
    base_mask = _simple_sieve(max(root, 2))
    base_primes = np.flatnonzero(base_mask)

    membership = np.ones(limit + 1, dtype=bool)
    membership[:2] = False

    low = 2
    while low <= limit:
        high = min(low + segment_size, limit + 1)  # exclusive
        seg = membership[low:high]
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start >= high:
                continue
            seg[start - low :: p] = False
        low = high

    return PrimeTable(limit, membership)


def is_prime(n: int) -> bool:
    """Deterministic primality test; any integer accepted, n <= 1 is False."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= 3_317_044_064_679_887_385_961_981:
        raise CapacityError("n beyond the deterministic witness range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_trial_primes: list[int] = []
_trial_limit = 0


def _trial_primes_upto(bound: int) -> list[int]:
    global _trial_primes, _trial_limit
    if bound > _trial_limit:
        new_limit = max(bound, 2 * _trial_limit, 1 << 16)
        _trial_primes = [int(p) for p in np.flatnonzero(_simple_sieve(new_limit))]
        _trial_limit = new_limit
    return _trial_primes


def factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> Factorization:
    """Full factorization by trial division over sieved primes.

    Any cofactor surviving trial division up to min(sqrt(n), trial_bound)
    must itself be prime (certified deterministically), otherwise the
    input is beyond capacity.
    """
    if n < 2:
        raise DomainError("factorize requires n >= 2")
    value = n
    factors: list[tuple[int, int]] = []
    bound = min(math.isqrt(n), trial_bound)
    for p in _trial_primes_upto(bound + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        if is_prime(n):
            factors.append((n, 1))
        else:
            raise CapacityError(
                f"composite cofactor {n} has no prime factor <= {trial_bound}"
            )
    return Factorization(value, tuple(factors))


def prime_count(x: int, table: PrimeTable | None = None) -> int:
    """pi(x): number of primes <= x, read off `table` (sieved to exactly x
    when None); a table smaller than x is a DomainError."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    if x < 2:
        return 0
    return (table or sieve(x)).count(x)


def prime_count_progression(
    p: Progression, x: int, table: PrimeTable | None = None
) -> int:
    """pi_{a,b}(x): primes q <= x with q congruent to b mod |a|, counted on
    the strided view of `table` (sieved to exactly x when None) that holds
    exactly those residues."""
    if x < 1:
        raise DomainError("prime_count_progression requires x >= 1")
    if x < 2:
        return 0
    t = table or sieve(x)
    if x > t.limit:
        raise DomainError(f"{x} outside table range [0, {t.limit}]")
    return int(np.count_nonzero(t.membership[p.residue : x + 1 : abs(p.a)]))
