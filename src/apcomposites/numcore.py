"""Deterministic primality, factorization, and prime counting.

Everything here is exact integer arithmetic. Primality for arbitrary
integers uses Miller-Rabin with a fixed witness set that is proven
deterministic for n < 3.3e24, so no answer is probabilistic in the
supported range.

Prime counts come from one index-space sieve, `_prime_segments`: it
marks the n with |a*n + b| prime in bytearrays of about 2**18 indices,
one segment at a time, so a count holds one segment, not [0, x].
`prime_count` sieves the odd numbers 2n + 1, `prime_count_progression`
only its residue class, and `prime_counts` records pi at many points in
one pass. `sieve` builds the whole membership table, in numpy, for
callers that want membership; numpy is imported inside it and
`PrimeTable.count`, so importing this module, and every command that
counts or needs only integer arithmetic, does not pay for loading it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Protocol

from .errors import CapacityError, DomainError

__all__ = [
    "Progression",
    "Factorization",
    "PrimeTable",
    "PrimeCounts",
    "PiTable",
    "sieve",
    "is_prime",
    "factorize",
    "prime_count",
    "prime_count_progression",
    "prime_counts",
]

# Deterministic Miller-Rabin witnesses for n < 3.317e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

DEFAULT_TRIAL_BOUND = 1_000_000
DEFAULT_SEGMENT = 1 << 20
# Indices per segment of the index-space sieve: a 256 KB mask.
_SEGMENT = 1 << 18


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
        import numpy as np

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


class PrimeCounts:
    """pi(x) at the points one prime_counts pass recorded; any other x is
    a DomainError."""

    def __init__(self, counts: dict[int, int]):
        self._counts = counts
        self.limit = max(counts)

    def count(self, x: int) -> int:
        if x not in self._counts:
            raise DomainError(f"pi({x}) was not recorded")
        return self._counts[x]


class PiTable(Protocol):
    """What the counting functions read: pi(x) = count(x) for the x a table
    holds, up to its limit. PrimeTable and PrimeCounts are both one."""

    limit: int

    def count(self, x: int) -> int: ...


def _small_primes(limit: int) -> list[int]:
    """Primes <= limit, ascending, from a bytearray sieve (no numpy)."""
    mask = bytearray(2) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(itertools.compress(range(limit + 1), mask))


def sieve(limit: int, segment_size: int = DEFAULT_SEGMENT) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to `limit` inclusive.

    Marking is done one segment at a time so the working set per pass is
    O(segment_size); the result table is independent of segmentation.
    """
    import numpy as np

    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    if segment_size < 2:
        raise DomainError("segment size must be >= 2")

    base_primes = _small_primes(math.isqrt(limit))
    membership = np.ones(limit + 1, dtype=bool)
    membership[:2] = False

    low = 2
    while low <= limit:
        high = min(low + segment_size, limit + 1)  # exclusive
        seg = membership[low:high]
        for p in base_primes:
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
        _trial_primes = _small_primes(new_limit)
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


def _indices(p: Progression, values, lo: int, hi: int) -> list[int]:
    """The n in [lo, hi] with a*n + b in `values`, for a >= 1."""
    return [n for v in values
            if (v - p.b) % p.a == 0 and lo <= (n := (v - p.b) // p.a) <= hi]


def _prime_segments(
    p: Progression, lo: int, hi: int, segment: int = _SEGMENT
) -> Iterator[tuple[int, bytearray]]:
    """(start, mask) over the indices lo <= n <= hi of a*n + b, a >= 1, in
    order and at most `segment` at a time: mask[i] = 1 exactly when
    |a*(start + i) + b| is prime.

    Sieved in index space, with no table of values: for a base prime
    q <= sqrt(max |term|), the terms it divides are the class
    n = -b/a (mod q) when q does not divide a, every term when q divides
    a and b (each mask then starts cleared), and none otherwise. The terms
    equal to +-q are restored afterwards, and those with |term| <= 1
    cleared.
    """
    if hi < lo:
        return
    base = _small_primes(math.isqrt(max(abs(p.term(lo)), abs(p.term(hi)))))
    coprime = all(p.a % q or p.b % q for q in base)
    classes = [(q, -p.b * pow(p.a, -1, q) % q) for q in base if coprime and p.a % q]
    fixes = sorted([(n, 1) for n in _indices(p, [s * q for q in base for s in (1, -1)], lo, hi)]
                   + [(n, 0) for n in _indices(p, (-1, 0, 1), lo, hi)], reverse=True)
    for start in range(lo, hi + 1, segment):
        size = min(segment, hi + 1 - start)
        mask = bytearray([coprime]) * size
        for q, r in classes:
            first = (r - start) % q
            if first < size:
                # A bytearray right-hand side is not copied.
                mask[first::q] = bytearray((size - 1 - first) // q + 1)
        while fixes and fixes[-1][0] < start + size:
            n, bit = fixes.pop()
            mask[n - start] = bit
        yield start, mask


def prime_counts(points: Iterable[int], *, _segment: int = _SEGMENT) -> PrimeCounts:
    """pi(x) at every x in `points` (any order, repeats allowed; pi(x) = 0
    for x < 2), from one pass of the odd numbers 2n + 1 up to the largest."""
    want = sorted(set(points))
    if not want:
        raise DomainError("prime_counts needs at least one point")
    counts = dict.fromkeys(want, 0)
    todo = [x for x in want if x >= 2]
    pi, i = 1, 0  # the prime 2, then the odd primes counted so far
    if todo:
        for start, mask in _prime_segments(Progression(2, 1), 0, (todo[-1] - 1) // 2, _segment):
            at = 0  # mask[:at] is counted in pi
            while i < len(todo) and (end := (todo[i] - 1) // 2 - start + 1) <= len(mask):
                pi += mask.count(1, at, end)
                counts[todo[i]], at, i = pi, end, i + 1
            pi += mask.count(1, at)
    return PrimeCounts(counts)


def prime_count(x: int, table: PiTable | None = None) -> int:
    """pi(x): number of primes <= x, read off `table` when given (one that
    does not hold x is a DomainError), else counted segment by segment."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    return (table or prime_counts((x,))).count(x)


def prime_count_progression(p: Progression, x: int, *, _segment: int = _SEGMENT) -> int:
    """pi_{a,b}(x): primes q <= x with q congruent to b mod |a|, counted
    segment by segment over the indices of |a|*n + (b mod |a|), 1/|a| of
    the integers up to x."""
    if x < 1:
        raise DomainError("prime_count_progression requires x >= 1")
    a, r = abs(p.a), p.residue
    return sum(mask.count(1) for _, mask in
               _prime_segments(Progression(a, r), 0, (x - r) // a, _segment))
