"""Deterministic primality, factorization, and prime counting.

Everything here is exact integer arithmetic. Primality for arbitrary
integers uses Miller-Rabin with a fixed witness set that is proven
deterministic for n < 3.3e24, so no answer is probabilistic in the
supported range.

Prime counts, and the progression scans of `analysis`, come from one
index-space sieve, `_prime_segments`: it marks the n with |a*n + b|
prime in bytearrays of about 2**18 indices, one segment at a time, so a
count or a scan holds one segment, not [0, x].
`prime_count` sieves the odd numbers 2n + 1, `prime_count_progression`
only its residue class, and `prime_counts` records pi at many points in
one pass, as a `PrimeTable`. Nothing here loads numpy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import CapacityError, DomainError

__all__ = [
    "Progression",
    "Factorization",
    "PrimeTable",
    "is_prime",
    "factorize",
    "prime_count",
    "prime_count_progression",
    "prime_counts",
]

# Deterministic Miller-Rabin witnesses for n < 3.317e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

TRIAL_BOUND = 1_000_000
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
    """pi(x) at the points one prime_counts pass recorded; any other x is
    a DomainError."""

    def __init__(self, counts: dict[int, int]):
        self._counts = counts

    def count(self, x: int) -> int:
        if x not in self._counts:
            raise DomainError(f"pi({x}) was not recorded")
        return self._counts[x]


def _small_primes(limit: int) -> list[int]:
    """Primes <= limit, ascending, from a bytearray sieve (no numpy)."""
    mask = bytearray(2) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(itertools.compress(range(limit + 1), mask))


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


def factorize(n: int) -> Factorization:
    """Full factorization by trial division over sieved primes.

    Any cofactor surviving trial division up to min(sqrt(n), TRIAL_BOUND)
    must itself be prime (certified deterministically), otherwise the
    input is beyond capacity.
    """
    if n < 2:
        raise DomainError("factorize requires n >= 2")
    value = n
    factors: list[tuple[int, int]] = []
    bound = min(math.isqrt(n), TRIAL_BOUND)
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
                f"composite cofactor {n} has no prime factor <= {TRIAL_BOUND}"
            )
    return Factorization(value, tuple(factors))


def _indices(p: Progression, values, lo: int, hi: int) -> list[int]:
    """The n in [lo, hi] with a*n + b in `values`, for a >= 1."""
    return [n for v in values
            if (v - p.b) % p.a == 0 and lo <= (n := (v - p.b) // p.a) <= hi]


def _prime_segments(p: Progression, lo: int, hi: int) -> Iterator[tuple[int, bytearray]]:
    """(start, mask) over the indices lo <= n <= hi of a*n + b, a >= 1, in
    order and at most `_SEGMENT` at a time: mask[i] = 1 exactly when
    |a*(start + i) + b| is prime. Every caller reads the masks one by one,
    so none holds more than a segment of the range.

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
    for start in range(lo, hi + 1, _SEGMENT):
        size = min(_SEGMENT, hi + 1 - start)
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


def prime_counts(points: Iterable[int]) -> PrimeTable:
    """pi(x) at every x in `points` (any order, repeats allowed; pi(x) = 0
    for x < 2), from one pass of the odd numbers 2n + 1 up to the largest."""
    want = sorted(set(points))
    if not want:
        raise DomainError("prime_counts needs at least one point")
    counts = dict.fromkeys(want, 0)
    todo = [x for x in want if x >= 2]
    pi, i = 1, 0  # the prime 2, then the odd primes counted so far
    if todo:
        for start, mask in _prime_segments(Progression(2, 1), 0, (todo[-1] - 1) // 2):
            at = 0  # mask[:at] is counted in pi
            while i < len(todo) and (end := (todo[i] - 1) // 2 - start + 1) <= len(mask):
                pi += mask.count(1, at, end)
                counts[todo[i]], at, i = pi, end, i + 1
            pi += mask.count(1, at)
    return PrimeTable(counts)


def prime_count(x: int) -> int:
    """pi(x): number of primes <= x, counted segment by segment."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    return prime_counts((x,)).count(x)


def prime_count_progression(p: Progression, x: int) -> int:
    """pi_{a,b}(x): primes q <= x with q congruent to b mod |a|, counted
    segment by segment over the indices of |a|*n + (b mod |a|), 1/|a| of
    the integers up to x."""
    if x < 1:
        raise DomainError("prime_count_progression requires x >= 1")
    a, r = abs(p.a), p.residue
    return sum(mask.count(1) for _, mask in
               _prime_segments(Progression(a, r), 0, (x - r) // a))
