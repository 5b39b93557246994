"""Deterministic primality, factorization, and prime counting.

Everything here is exact integer arithmetic. Primality for arbitrary
integers uses Miller-Rabin with the 13 prime bases up to 41, proven
deterministic for n < 3.3e24 (Sorenson and Webster, 2017), and refuses
larger n, so no answer is probabilistic. `factorize` keeps no state: it
certifies each part by that test or splits it by Pollard's rho, so it
completes for every n < 3.3e24, whatever was factored before.

`prime_counts(points, p=None)` is the one counting entry: pi(x), or
pi(x; |a|, b) given a progression p, at every point, as one `PrimeTable`.
Without p, pi at x and at the points x // i comes from Lucy_Hedgehog's
dynamic program, `_lucy`, in O(x^(3/4)) time and O(sqrt(x)) memory.
Every other count, and every scan over a range of n, come from
one index-space sieve, `_prime_segments`: it marks the n with |a*n + b|
prime in bytearrays of `_SEGMENT` indices, one segment at a time, so a
count or a scan holds one segment, not [0, x]. Each mask starts as a
slice of one pattern in which the classes of the smallest base primes
are already cleared, so only the others are strided per segment; unlike
a wheel, it skips no index. The n with |a*n + b| <= r, the square root
of the largest term, read their bits off the sieve of the base primes,
whose 0 and 1 read `units`: 0 to count primes, 1 to scan for composites.
Every count reads it through `_segment_counts`, the 1s up to each of
ascending ends: `prime_counts` over one residue class, |a|*n + (b mod |a|)
or the odd numbers 2n + 1, and analysis's composite density over its
progression. `_ones` counts a slice by its Adler-32 byte sums, and loads
zlib only past 2,048 bytes.
"""

import itertools
import math
from collections.abc import Iterable, Iterator

from .errors import CapacityError, DomainError, check_sieve

__all__ = [
    "Progression",
    "Factorization",
    "PrimeTable",
    "is_prime",
    "factorize",
    "prime_count",
    "prime_counts",
]

# Deterministic Miller-Rabin witnesses for n < psi_13 = 3.317e24, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017; OEIS A014233). The 12 bases up to 37 are deterministic only below
# psi_12 = 318665857834031151167461, a strong pseudoprime to each of them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Indices per segment of the index-space sieve: a 256 KB mask.
_SEGMENT = 1 << 18
# `_ones` counts a slice of up to this many bytes by bytearray.count,
# whose call costs less than its Adler-32 sums.
_COUNT_RUN = 2048


class Record:
    """Immutable record over the fields its class names in __slots__.

    Fields are given positionally or by keyword; one given neither way
    takes its value from the class's _defaults. Records are equal when
    their types and field values are, hash, repr and pickle by their
    values, and refuse assignment.
    A record is not a tuple, so json.dumps hands it to its `default`
    hook rather than writing it as an array; a class the CLI writes names
    the fields of its JSON object once, in _json. Subclass Record directly.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            if (len(args) > len(fields) or given.keys() & kwargs.keys()
                    or not kwargs.keys() <= set(fields)):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)}, each once")
            given.update(kwargs)
            try:
                args = [given[f] if f in given else self._defaults[f] for f in fields]
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() is missing field {exc}") from None
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as setattr is refused.
        return type(self), self._values()


class Progression(Record):
    """Arithmetic progression a*n + b with nonzero integer step a."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a == 0:
            raise DomainError("progression step a must be nonzero")
        super().__init__(a, b)

    def term(self, n: int) -> int:
        return self.a * n + self.b

    @property
    def residue(self) -> int:
        """Offset reduced modulo |a|."""
        return self.b % abs(self.a)


class Factorization(Record):
    """Prime factorization of a positive integer >= 2, primes ascending:
    factors is a tuple of (prime, exponent) pairs."""

    __slots__ = ("value", "factors")
    _json = ("type", "value", "factors")
    type = "factorization"

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
    """pi(x), or pi(x; |a|, b), at the points one prime_counts pass
    recorded; any other x is a DomainError. _top is the largest point."""

    def __init__(self, counts: dict[int, int]):
        self._counts = counts
        self._top = max(counts)

    def count(self, x: int) -> int:
        if x not in self._counts:
            raise DomainError(f"pi({x}) was not recorded")
        return self._counts[x]


def _small_sieve(limit: int) -> bytearray:
    """mask[v] = 1 exactly when v <= limit is prime: at least 2 bytes, no numpy."""
    mask = bytearray(2) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes((limit - p * p) // p + 1)
    return mask


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


def _split(m: int) -> int:
    """A divisor 1 < d < m of a composite m: its least prime factor up to
    47, else one found by Pollard's rho (BIT 15, 1975), x -> x*x + c from
    x = 2 with Floyd's cycle check, for c = 1, 2, ... until one splits m."""
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return p
    for c in itertools.count(1):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(x - y, m)
        if d != m:
            return d


def _of_primes(primes: list[int]) -> Factorization:
    """The Factorization of the product of proven `primes`, in any order."""
    primes = sorted(primes)
    return Factorization(math.prod(primes),
                         tuple((p, len(list(g))) for p, g in itertools.groupby(primes)))


def factorize(n: int) -> Factorization:
    """Full factorization of n >= 2: each part is certified by `is_prime`
    or split in two by `_split`. A part of at least psi_13 with no prime
    factor <= 47 is refused by `is_prime`, as a CapacityError."""
    if n < 2:
        raise DomainError("factorize requires n >= 2")
    primes, parts = [], [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            primes.append(m)
        else:
            parts += (d := _split(m), m // d)
    return _of_primes(primes)


def _period(qs: Iterable[int], n: int) -> tuple[int, int]:
    """(k, P) for the masks of n indices: the k leading ascending qs whose
    product P is the largest that stays <= _SEGMENT // 4. A pattern of
    P - 1 + _SEGMENT bytes sieved by those k holds every segment, at an
    offset of its start mod P, in at most 1.25 segments of memory. When
    n fits in one segment, a pattern would save no stride: k = 0, P = 1.
    """
    k, period = 0, 1
    if n > _SEGMENT:
        for q in qs:
            if period * q > _SEGMENT // 4:
                break
            k, period = k + 1, period * q
    return k, period


def _prime_segments(p: Progression, lo: int, hi: int,
                    units: int = 0) -> Iterator[tuple[int, bytearray]]:
    """(start, mask) over the indices lo <= n <= hi of a*n + b, a >= 1, in
    order and at most `_SEGMENT` at a time: mask[i] = 1 exactly when
    |a*(start + i) + b| is prime, or with units = 1 at most 1. Every caller
    reads the masks one by one, so none holds more than a segment.

    Sieved in index space, with no table of values: for a base prime
    q <= r = isqrt(max |term|), the terms it divides are the class
    n = -b/a (mod q) when q does not divide a, every term when q divides
    a and b (each mask then starts cleared), and none otherwise. The
    smallest classes, of period P (`_period`), are cleared once in a
    pattern, and each mask starts as its slice at start mod P; only the
    other classes are strided per segment. Every index is still sieved:
    unlike a wheel, the pattern skips none. A term with |term| > r is
    prime exactly when it is still marked. The terms with |term| <= r,
    base primes and units among them, lie in one range of indices, whose
    bits are read off the small sieve of the base primes.
    """
    if hi < lo:
        return
    r = math.isqrt(max(abs(p.term(lo)), abs(p.term(hi))))
    small = _small_sieve(r)
    # A prime that divides a and b is at most a.
    coprime = all(p.a % q or p.b % q for q in itertools.compress(range(min(r, p.a) + 1), small))
    classes = [(q, -p.b * pow(p.a, -1, q) % q)
               for q in itertools.compress(range(r + 1), small) if coprime and p.a % q]
    small[:2] = units, units
    # near[n - n0] = small[|a*n + b|], off the mirror image of small.
    n0, n1 = max(lo, -((r + p.b) // p.a)), min(hi, (r - p.b) // p.a)
    near = ((small[r:0:-1] + small[: r + 1])[p.term(n0) + r : p.term(n1) + r + 1 : p.a]
            if n0 <= n1 else b"")
    k, period = _period((q for q, _ in classes), hi + 1 - lo)
    pattern = bytearray([coprime]) * (period - 1 + min(_SEGMENT, hi + 1 - lo))
    for q, c in classes[:k]:
        pattern[c::q] = bytearray((len(pattern) - 1 - c) // q + 1)
    del classes[:k]
    for start in range(lo, hi + 1, _SEGMENT):
        size = min(_SEGMENT, hi + 1 - start)
        mask = pattern[start % period : start % period + size]
        for q, c in classes:
            first = (c - start) % q
            if first < size:
                # A bytearray right-hand side is not copied.
                mask[first::q] = bytearray((size - 1 - first) // q + 1)
        if (at := max(start, n0)) < (end := min(start + size, n1 + 1)):
            mask[at - start : end - start] = near[at - n0 : end - n0]
        yield start, mask


def _lucy(x: int) -> tuple[list[int], list[int]]:
    """Lucy_Hedgehog's dynamic program, in O(x^(3/4)) time and O(sqrt(x))
    memory: (small, large) with small[v] = pi(v) for v <= r = isqrt(x) and
    large[i] = pi(x // i) for 1 <= i <= r, x >= 2.

    S(v) counts the n in [2, v] that are prime or have no prime factor
    below the current p: v - 1 at first, pi(v) once p passes sqrt(v).
    Sieving a prime p removes the p*m <= v with m >= p and no prime
    factor of m below p: S(v) -= S(v // p) - pi(p - 1) for v >= p*p, read
    from the values before p. Every v // p of a point x // i is
    x // (i*p), which is again a point: large[i*p] for i*p <= r, and
    small[(x // i) // p] otherwise.
    """
    r = math.isqrt(x)
    small = [0, *range(r)]
    quotients = [0, *(x // i for i in range(1, r + 1))]
    large = [v - 1 for v in quotients]
    for p in range(2, r + 1):
        below = small[p - 1]  # pi(p - 1)
        if small[p] == below:
            continue  # p is composite
        last = min(r, x // (p * p))  # large[i] with x // i >= p*p
        mid = min(last, r // p)  # those whose i*p is still <= r
        large[1 : mid + 1] = [s - t + below for s, t in
                              zip(large[1 : mid + 1], large[p : mid * p + 1 : p])]
        large[mid + 1 : last + 1] = [s - small[v // p] + below for s, v in
                                     zip(large[mid + 1 : last + 1],
                                         quotients[mid + 1 : last + 1])]
        if p * p <= r:
            small[p * p :] = [s - small[v // p] + below for v, s in
                              zip(range(p * p, r + 1), small[p * p :])]
    return small, large


def _ones(mask: bytearray, lo: int = 0, hi: int | None = None) -> int:
    """The number of 1s in mask[lo:hi], a 0/1 bytearray.

    Past `_COUNT_RUN` bytes, the count is the low 16 bits of
    zlib.adler32(chunk, 0), the chunk's byte sum mod 65521, summed over
    chunks of at most 65520 bytes: each sum is below the modulus, so it is
    exact. On a prime mask of 2**18 bytes that is about three times as
    fast as bytearray.count. zlib is imported only then, so a command that
    counts no longer slice never loads it.
    """
    view = memoryview(mask)[lo:hi]
    if len(view) <= _COUNT_RUN:
        return mask.count(1, lo, hi)
    import zlib

    return sum(zlib.adler32(view[i : i + 65520], 0) & 0xFFFF
               for i in range(0, len(view), 65520))


def _segment_counts(p: Progression, lo: int, hi: int, ends: Iterable[int],
                    units: int = 0) -> Iterator[int]:
    """For each of the ascending `ends`, all in [lo - 1, hi], the number of
    n in [lo, end] with |a*n + b| prime (or at most 1, given units = 1),
    a >= 1, from one `_prime_segments` pass over [lo, hi] that reads no
    further than each end as it is asked for, so ends may come lazily."""
    count, start, mask, at = 0, lo, bytearray(), 0  # mask[:at] is counted
    segments = _prime_segments(p, lo, hi, units)
    for end in ends:
        while (stop := end - start + 1) > len(mask):
            count += _ones(mask, at)
            (start, mask), at = next(segments), 0
        count += _ones(mask, at, stop)
        at = stop
        yield count


def prime_counts(points: Iterable[int], p: Progression | None = None) -> PrimeTable:
    """pi(x) at every x in `points` (any order, repeats allowed; 0 for
    x < 2), or with `p`, pi(x; |a|, b): the primes <= x congruent to b
    mod |a|.

    Without p, with X the largest point, the table comes from `_lucy(X)`
    when every point is at most isqrt(X) or of the form X // i: a single
    x, the n and 2n of one binomial check, powers of 2 or 4, a geometric
    sweep. Any other count is one `_segment_counts` pass up to X over a
    residue class: |a|*n + (b mod |a|), or without p the odd numbers
    2n + 1, with the prime 2 added. An X past the sieve cap is refused
    first (`errors.check_sieve`), and so is `prime_count`'s x.
    """
    want = sorted(set(points))
    if not want:
        raise DomainError("prime_counts needs at least one point")
    check_sieve("x", want[-1])
    counts = dict.fromkeys(want, 0)
    todo = [x for x in want if x >= 2]
    if todo:
        top, root = todo[-1], math.isqrt(todo[-1])
        if p is None and all(x <= root or top // (top // x) == x for x in todo):
            small, large = _lucy(top)
            counts.update((x, small[x] if x <= root else large[top // x]) for x in todo)
        else:  # one residue class; without p, the odd primes and the prime 2
            a, r, two = (2, 1, 1) if p is None else (abs(p.a), p.residue, 0)
            in_class = _segment_counts(Progression(a, r), 0, (top - r) // a,
                                       ((x - r) // a for x in todo))
            counts.update(zip(todo, (c + two for c in in_class)))
    return PrimeTable(counts)


def prime_count(x: int, p: Progression | None = None) -> int:
    """pi(x) by `_lucy` in O(x^(3/4)) time, or with `p` pi(x; |a|, b) by a
    segment pass over |a|*n + (b mod |a|), 1/|a| of the integers to x."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    return prime_counts((x,), p).count(x)
