"""Deterministic primality, factorization, and prime counting.

Everything here is exact integer arithmetic. Primality for arbitrary
integers uses Miller-Rabin with the 13 prime bases up to 41, proven
deterministic for n < 3.3e24 (Sorenson and Webster, 2017), and refuses
larger n, so no answer is probabilistic. `factorize` keeps no state: it
certifies each part by that test or splits it by Pollard's rho, so it
completes for every n < 3.3e24, whatever was factored before.

`prime_counts(points, p=None)` is the one counting entry: pi(x), or
pi(x; |a|, b) given a progression p, at every point, as one `PrimeTable`.
Without p, pi at x and at the points x // i comes from Lucy's table of
x, pi(v) for v <= sqrt(x) and pi(x // i) at the rows i asked for, by
Lehmer's formula, `_lehmer`: Lucy_Hedgehog's dynamic program over the
primes to y = max(x^(1/4), x // (64*sqrt(x))) at the y largest quotients
x // i, with every smaller count read off one bytearray that pre-sieves
the odd numbers to x // y, min(x^(3/4), 64*sqrt(x)) / 2 bytes, in
ascending `_prefix_ones` passes. Most of its time is that C-level byte
counting. The point counts ask for the rows of their points, and
analysis's omega walk for every row.
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
from collections.abc import Iterable, Iterator, Sequence

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
# The wheel of the point counts' pre-sieve: 2*3*5*7*11*13.
_WHEEL = 30030


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


def _prefix_ones(mask: bytearray, ends: list[int]) -> list[int]:
    """The number of 1s in mask[: e + 1] for each of the ascending `ends`,
    each at least -1, in one pass that counts the slice between two
    consecutive ends once. A mask of at most `_COUNT_RUN` bytes is counted
    by bytearray.count. A longer one loads zlib, as `_ones` does, and
    counts each slice of at most 65520 bytes by one Adler-32 sum."""
    stops = [e + 1 for e in ends]
    if len(mask) <= _COUNT_RUN:
        return list(itertools.accumulate(map(mask.count, itertools.repeat(1),
                                             [0, *stops], stops)))
    from zlib import adler32

    view, counts, count, at = memoryview(mask), [], 0, 0
    for stop in stops:
        count += (adler32(view[at:stop], 0) & 0xFFFF if stop - at <= 65520
                  else _ones(mask, at, stop))
        counts.append(count)
        at = stop
    return counts


def _lehmer(x: int, rows: Iterable[int]) -> tuple[Sequence[int], list[int]]:
    """Lucy's table of x >= 2 by Lehmer's formula (Illinois J. Math. 3,
    1959): (small, large), each of r + 1 entries for r = isqrt(x), with
    small[v] = pi(v) for v <= r and large[i] = pi(x // i) for each of the
    `rows` i, 1 <= i <= r. No other entry of large is read.

    With a = pi(y) for some y >= x^(1/4), every v <= x has
    pi(v) = S(v) - P2(v) - P3(v): S(v) = phi(v, a) + a - 1 counts the n in
    [2, v] that are prime or have no prime factor <= y, and P2 and P3 count
    the n <= v with exactly two and three prime factors, all above y. No
    n <= x has four.

    y = max(x^(1/4), x // (64*sqrt(x))), and one bytearray pre-sieves the
    odd numbers to L = x // y, mask[k] for n = 2k + 1: min(x^(3/4),
    64*sqrt(x)) / 2 bytes. S at the y largest quotients x // i comes from
    Lucy_Hedgehog's dynamic program over the primes p <= y:
    S(v) -= S(v // p) - pi(p - 1) for v >= p*p. Each v // p = x // (i*p)
    with i*p <= y is again such a quotient. Every other is at most L, and
    its S, the prime 2 and the 1s of the mask up to it, is read in one
    ascending `_prefix_ones` pass before p's multiples are cleared. From
    y >= 13 on, the mask starts as the pattern of the 2*3*5*7*11*13 wheel,
    S as the wheel's counts, and the program at 17. The same loop goes on
    to clear the primes to sqrt(L), and the mask then marks the odd
    primes to L.

    small is one accumulate over the mask to r. A row i >= y, with
    x // i <= L, is read off the mask. A row i < y is S - P2 - P3 at
    v = x // i: P2(v) sums pi(v // p) - pi(p) + 1 over the primes
    y < p <= sqrt(v), and P3(v) sums pi(v // (p*q)) - pi(q) + 1 over the
    primes y < p <= q with p*q*q <= v, the `terms` of the row. Each
    v // p = x // (i*p) is large[i*p], a row above y, when i*p <= r, and
    small[x // (i*p)] otherwise, and so is each v // (p*q). One more
    ascending pass reads the rows from y on that are asked or needed.
    small, the primes and those rows are arrays of C ints; the array module
    loads only here.
    """
    from array import array

    r = math.isqrt(x)
    y = max(math.isqrt(r), x // (64 * r))
    top = (x // y - 1) // 2  # mask[top] is the last odd n <= L
    quotients = [x // i for i in range(1, y + 1)]
    if y >= 13:
        half = _WHEEL // 2  # the odd n mod _WHEEL, mask[k] for n = 2k + 1
        wheel = bytearray([1]) * half
        for q in (3, 5, 7, 11, 13):
            wheel[q // 2 :: q] = bytes(len(range(q // 2, half, q)))
        mask = wheel * (top // half + 1)
        del mask[top + 1 :]
        mask[:7] = b"\0\1\1\1\0\1\1"  # 1, 3, 5, 7, 9, 11, 13
        # The n <= v prime to the wheel, 1 among them, are
        # (v - 1) // 2 // half full periods of 5760 and a part period.
        ends = sorted({(v - 1) // 2 % half for v in quotients})
        part = dict(zip(ends, _prefix_ones(wheel, ends)))
        large = [0, *((v - 1) // 2 // half * 5760 + part[(v - 1) // 2 % half] + 5
                      for v in quotients)]
        below, start = 6, 17
    else:
        mask = bytearray(1) + bytearray([1]) * top
        large = [0, *((v + 1) // 2 for v in quotients)]  # 2 and the odd n in [3, v]
        below, start = 1, 3
    for p in range(start, max(y, math.isqrt(x // y)) + 1, 2):
        if not mask[p // 2]:
            continue  # p is composite
        if p <= y:
            last = min(y, x // (p * p))  # large[i] with x // i >= p*p
            mid = min(last, y // p)  # those whose i*p is still <= y
            large[1 : mid + 1] = [s - t + below for s, t in
                                  zip(large[1 : mid + 1], large[p : mid * p + 1 : p])]
            read = _prefix_ones(mask, [(x // (i * p) - 1) // 2 for i in range(last, mid, -1)])
            large[mid + 1 : last + 1] = [s - t - 1 + below for s, t in
                                         zip(large[mid + 1 : last + 1], reversed(read))]
            below += 1
        mask[p * p // 2 :: p] = bytes(len(range(p * p // 2, top + 1, p)))
    # odd[k] = pi(2k + 1) = pi(2k + 2) for k >= 1, and pi(2) = 1 at k = 0.
    odd = array("I", itertools.accumulate(mask[1 : (r + 1) // 2], initial=1))
    small = array("I", [0]) * (r + 1)
    small[2::2], small[3::2] = odd[: r // 2], odd[1:]
    del odd
    primes = array("I", [2, *itertools.compress(range(3, r + 1, 2), mask[1 : (r + 1) // 2])])
    a = small[y]

    def terms(i: int) -> tuple[int, list[int]]:
        """P2 + P3 at the row i < y, v = x // i, as (k, ns): the sum of
        pi(x // n) over the n in ns, less k. Its n are i*p for each
        p = primes[j] of P2, whose -pi(p) + 1 is -j, and i*p*q for each
        q = primes[j'] >= p of P3, whose -pi(q) + 1 is -j'. Past 64**6,
        y exceeds x^(1/3), and a row whose v is below y*y has no term."""
        v = x // i
        b = max(a, small[math.isqrt(v)])
        ns, k = [i * p for p in primes[a:b]], (a + b - 1) * (b - a) // 2
        for j in range(a, b):
            if (p := primes[j]) ** 3 > v:
                break
            c = small[math.isqrt(v // p)]
            ns += [i * p * q for q in primes[j:c]]
            k += (j + c - 1) * (c - j) // 2
        return k, ns

    large += [0] * (r - y)
    want = bytearray(r + 1)  # the rows to fill
    for i in rows:
        want[i] = 1
    low = list(itertools.compress(range(y), want))
    for i in low:
        for n in terms(i)[1]:
            if n <= r:
                want[n] = 1
    high, at = array("I"), r + 1  # the rows from y on, x // n ascending
    while (at := want.rfind(1, y, at)) >= 0:
        high.append(at)
    del want
    for n, c in zip(high, _prefix_ones(mask, [(x // n - 1) // 2 for n in high])):
        large[n] = c + 1
    for i in low:
        k, ns = terms(i)
        large[i] += k - sum([large[n] if n <= r else small[x // n] for n in ns])
    return small, large


def prime_counts(points: Iterable[int], p: Progression | None = None) -> PrimeTable:
    """pi(x) at every x in `points` (any order, repeats allowed; 0 for
    x < 2), or with `p`, pi(x; |a|, b): the primes <= x congruent to b
    mod |a|.

    Without p, with X the largest point, the counts are read off Lucy's
    table of X, `_lehmer`, asked for the rows X // x of the points above
    isqrt(X), when every point is at most isqrt(X) or of the form X // i:
    a single x, the n and 2n of one binomial check, powers of 2 or 4, a
    geometric sweep. Lehmer's formula holds min(X^(3/4),
    64*sqrt(X)) / 2 bytes of pre-sieve: 1 MB at 1e9, 3.2 MB at 1e10. Any
    other count is one `_segment_counts` pass up to X over a
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
            small, large = _lehmer(top, {top // x for x in todo if x > root})
            counts.update((x, small[x] if x <= root else large[top // x]) for x in todo)
        else:  # one residue class; without p, the odd primes and the prime 2
            a, r, two = (2, 1, 1) if p is None else (abs(p.a), p.residue, 0)
            in_class = _segment_counts(Progression(a, r), 0, (top - r) // a,
                                       ((x - r) // a for x in todo))
            counts.update(zip(todo, (c + two for c in in_class)))
    return PrimeTable(counts)


def prime_count(x: int, p: Progression | None = None) -> int:
    """pi(x) by Lehmer's formula (`_lehmer`), over a pre-sieve of
    min(x^(3/4), 64*sqrt(x)) / 2 bytes, or with `p` pi(x; |a|, b) by a
    segment pass over |a|*n + (b mod |a|), 1/|a| of the integers to x."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    return prime_counts((x,), p).count(x)
