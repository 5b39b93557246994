"""Numerical checks of the zero-density inequality chain, composite
densities in progressions, prime runs, and the normalized
distinct-prime-factor statistic.

The inequality checks are proven theorems: a single failure at any
admissible input is an implementation bug, and tests treat it as such.
The progression scans read numcore's index-space sieve one segment at
a time, and the omega pass fills bytearray segments of the same size,
each a slice of one pre-sieved pattern of the smallest primes, so no
array spans the whole range. Masks are counted by numcore's `_ones`. Each entry point checks its domain,
then the sieve cap, before any work. Nothing here loads numpy.
"""

import math

from . import numcore
from .errors import DomainError, check_sieve
from .numcore import (
    PrimeTable,
    Progression,
    Record,
    _indices,
    _ones,
    _period,
    _prime_segments,
    _small_primes,
    prime_counts,
)

__all__ = [
    "BoundCheck",
    "DensityPoint",
    "RunRecord",
    "RunScan",
    "EKIntervalStat",
    "EKSummary",
    "central_binom_bound",
    "dyadic_gap_bound",
    "pi_power4_bound",
    "density_bound_check",
    "progression_composite_density",
    "longest_prime_run",
    "run_length_threshold",
    "erdos_kac_samples",
    "gaussian_mass",
    "pi_points",
    "scan_need",
]

# bytes.translate tables: adding 1 to every byte, and _ONE_OF[k] mapping
# k to 1 and every other byte to 0.
_INC = bytes(range(1, 256)) + b"\0"
_ONE_OF = [bytes(k) + b"\1" + bytes(255 - k) for k in range(16)]


class BoundCheck(Record):
    """One evaluated inequality: lhs < rhs must hold; detail holds
    (name, value) pairs of the terms behind it."""

    __slots__ = ("param", "lhs", "rhs", "holds", "detail")
    _defaults = {"detail": ()}


# Each check of the chain, declared once: its parameter, its least value,
# and the pi points it reads, each (mult, exp) for mult * 2**exp, the
# largest last, so the sieve cap compares a power of 2 by its exponent. A
# sweep passes the table of one prime_counts pass over all its points.
PI_POINTS = {
    "central_binom_bound": ("n", 2, lambda n: ((n, 0), (n, 1))),
    "dyadic_gap_bound": ("k", 2, lambda k: ((1, k - 1), (1, k))),
    "pi_power4_bound": ("m", 1, lambda m: ((1, 2 * m),)),
    "density_bound_check": ("x", 2, lambda x: ((x, 0),)),  # log4 x must be positive
}


def pi_points(check: str, value: int, table: PrimeTable | None = None) -> tuple[int, ...]:
    """The pi points `check` reads at `value`, the largest last. A value
    below the check's least is a DomainError. Then, without a table, a
    largest point past the sieve cap is a CapacityError; a given table
    needs no sieve, and a point whose exponent alone puts it past the
    table's largest point is a DomainError. Either comes before any power
    is built."""
    name, least, points = PI_POINTS[check]
    if value < least:
        raise DomainError(f"{check} requires {name} >= {least}")
    points = points(value)
    if table is None:
        check_sieve(name, value, *points[-1])
    elif points[-1][1] > table._top.bit_length():
        raise DomainError(f"{name} {value} reads pi past {table._top}, "
                          "the table's largest point")
    return tuple(mult << exp for mult, exp in points)


def scan_need(scan: str, param: str, n: int, *progressions: Progression) -> None:
    """The refusals of `scan` over m in [1, n] of each progression, up front."""
    for p in progressions:
        if p.a < 1:
            raise DomainError(f"{scan} requires a >= 1")
    if n < 1:
        raise DomainError(f"{param} must be >= 1")
    check_sieve(param, n, max(abs(p.term(m)) for p in progressions for m in (1, n)))


def _pi(check: str, value: int, table: PrimeTable | None) -> list[int]:
    """pi at the check's `pi_points`, in their order: read off the given
    table, or off one prime_counts pass over them."""
    xs = pi_points(check, value, table)
    if table is None:
        table = prime_counts(xs)
    return [table.count(x) for x in xs]


def central_binom_bound(n: int, table: PrimeTable | None = None) -> BoundCheck:
    """n^(pi(2n) - pi(n)) < 4^n, compared in log space."""
    pi_n, pi_2n = _pi("central_binom_bound", n, table)
    gap = pi_2n - pi_n
    lhs = gap * math.log(n)
    rhs = n * math.log(4)
    return BoundCheck(n, lhs, rhs, lhs < rhs, (("gap", float(gap)),))


def dyadic_gap_bound(k: int, table: PrimeTable | None = None) -> BoundCheck:
    """pi(2^k) - pi(2^(k-1)) < 2^k / (k-1)."""
    pi_half, pi_2k = _pi("dyadic_gap_bound", k, table)
    gap = pi_2k - pi_half
    bound = 2**k / (k - 1)
    return BoundCheck(k, float(gap), bound, gap < bound)


def pi_power4_bound(m: int, table: PrimeTable | None = None) -> BoundCheck:
    """pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m."""
    (pi_4m,) = _pi("pi_power4_bound", m, table)
    bound = 1 + 2 ** (m + 1) + 2 ** (2 * m + 1) / m
    return BoundCheck(m, float(pi_4m), bound, pi_4m < bound)


class DensityPoint(Record):
    """pi(x)/x against the closed-form bound 1/x + 4/sqrt(x) + 8/log4(x)."""

    __slots__ = ("x", "pi_x", "ratio", "bound", "holds")


def density_bound_check(x: int, table: PrimeTable | None = None) -> DensityPoint:
    from fractions import Fraction

    (pi_x,) = _pi("density_bound_check", x, table)
    ratio = Fraction(pi_x, x)
    log4x = math.log(x) / math.log(4)
    bound = 1 / x + 4 / math.sqrt(x) + 8 / log4x
    return DensityPoint(x, pi_x, ratio, bound, float(ratio) < bound)


def progression_composite_density(p: Progression, x: int) -> "Fraction":
    """Exact fraction of n in [1, x] with |a*n + b| composite: neither
    prime nor at most 1. Its `scan_need` comes before anything is sieved."""
    from fractions import Fraction

    scan_need("progression_composite_density", "x", x, p)
    primes = sum(_ones(mask) for _, mask in _prime_segments(p, 1, x))
    return Fraction(x - primes - len(_indices(p, (-1, 0, 1), 1, x)), x)


class RunRecord(Record):
    """Maximal run of consecutive indices with prime progression values.

    Runs touching the scan boundary at n_max are flagged truncated;
    maximality at the right edge is then unknown.
    """

    __slots__ = ("progression", "start_n", "length", "values", "truncated")


class RunScan(Record):
    """The maximal runs of the greatest length, by their first indices
    (ascending); their records are built only when read."""

    __slots__ = ("progression", "n_max", "max_length", "starts")

    def _record(self, start: int) -> RunRecord:
        end = start + self.max_length
        p = self.progression
        return RunRecord(p, start, self.max_length,
                         tuple(range(p.term(start), p.term(end), p.a)),
                         end == self.n_max + 1)

    @property
    def best(self) -> RunRecord | None:
        return self._record(self.starts[0]) if self.starts else None

    @property
    def max_runs(self) -> tuple[RunRecord, ...]:
        return tuple(self._record(s) for s in self.starts)


def run_length_threshold(p: Progression) -> int:
    """Index past which the unit-offset construction caps runs at a^2.

    n* = a*(a*m0 + b) + m0 with m0 >= 1 the least m making a*m + b > 1.
    The composites (a^2+1)(a*m + b) sit at n = a*(a*m + b) + m for every
    m >= m0, so beyond n* every window of a^2 + 1 indices holds one, and
    only runs starting at n > n* are subject to the bound. (|a*m + b| > 1
    is not enough: for b <= -3, a*m + b later passes through -1, 0, 1.)
    """
    if p.a < 1:
        raise DomainError("run_length_threshold requires a >= 1")
    m0 = max(1, (1 - p.b) // p.a + 1)
    return p.a * (p.a * m0 + p.b) + m0


def longest_prime_run(p: Progression, n_max: int) -> RunScan:
    """Scan n in [1, n_max] for maximal runs of prime values, one sieve
    segment at a time, once its `scan_need` has passed."""
    scan_need("longest_prime_run", "n_max", n_max, p)
    length, starts = 0, []
    # The 0 before the open run (n = 0 at first), then the segments since.
    window = bytearray(1)
    for start, mask in _prime_segments(p, 1, n_max):
        base = start - len(window)  # the n of window[0]
        window += mask
        if start + len(mask) > n_max:
            window.append(0)  # n_max + 1 closes the last run
        # window[:end] starts and ends with a 0, so every run in it is a
        # maximal run 0 1^L 0.
        end = window.rfind(0) + 1
        # The first run of length L + 1 starts no earlier than the first of L.
        longest, at = length, 0
        while (found := window.find(b"\x01" * (longest + 1), at, end)) >= 0:
            longest, at = longest + 1, found
        if longest > length:
            length, starts = longest, []
        run = b"\x00" + b"\x01" * length + b"\x00"
        at = window.find(run, 0, end) if length else -1
        while at >= 0:
            starts.append(base + at + 1)
            at = window.find(run, at + length + 1, end)
        window = window[end - 1 :]
    return RunScan(p, n_max, length, tuple(starts))


class EKIntervalStat(Record):
    __slots__ = ("lo", "hi", "sample_fraction", "gaussian_mass")


class EKSummary(Record):
    __slots__ = ("x", "sample_count", "mean_omega", "intervals")


def gaussian_mass(lo: float, hi: float) -> float:
    """Standard normal probability of [lo, hi]."""
    return 0.5 * (math.erf(hi / math.sqrt(2)) - math.erf(lo / math.sqrt(2)))


def _omega_histogram(x: int) -> list[int]:
    """hist[k] = #{3 <= n <= x : omega(n) = k} (x < 2**63, so k <= 15).

    Each segment of `numcore._SEGMENT` integers counts the primes
    q <= r = isqrt(x) that divide each n. It starts as a slice of one
    pattern that holds those counts for the smallest primes (`_period`:
    the primes up to 13, period 30030, past one segment), and only the
    other primes are strided per segment. Each value k is counted by
    `_ones` on the segment translated to a 0/1 mask of k.

    An n <= x has at most one prime factor P > r, and then n = m*P with
    m <= r: for each m, the pi(x // m) - pi(max(r, 2)) such n (the max leaves out n = 2 at x = 3)
    move up one bucket from omega(m). These points are all x // i or at
    most r, so one prime_counts call reads every pi off Lucy's table.
    """
    r = math.isqrt(x)
    primes = _small_primes(r)
    hist = [0] * 16
    k, period = _period(primes, x - 2)
    pattern = bytearray(period - 1 + min(numcore._SEGMENT, x - 2))
    for q in primes[:k]:
        pattern[::q] = pattern[::q].translate(_INC)
    for lo in range(3, x + 1, numcore._SEGMENT):
        seg = pattern[lo % period : lo % period + min(numcore._SEGMENT, x + 1 - lo)]
        for q in primes[k:]:
            seg[-lo % q :: q] = seg[-lo % q :: q].translate(_INC)
        counted = value = 0
        while counted < len(seg):
            hist[value] += (c := _ones(seg.translate(_ONE_OF[value])))
            counted, value = counted + c, value + 1
    small = bytearray(r + 1)  # omega(m) for m <= r
    for q in primes:
        small[q::q] = small[q::q].translate(_INC)
    pi = prime_counts([max(r, 2), *(x // m for m in range(1, r + 1))])
    for m in range(1, r + 1):
        moved = pi.count(x // m) - pi.count(max(r, 2))
        hist[small[m]] -= moved
        hist[small[m] + 1] += moved
    return hist


def erdos_kac_samples(
    x: int, intervals: tuple[tuple[float, float], ...] = ((-1.0, 1.0),)
) -> EKSummary:
    """Summary of the normalized statistic over 3 <= n <= x.

    Interval fractions normalize by log log x (the fixed-endpoint form
    of the limit theorem), which converges much faster at desk scale
    than the per-sample log log n; both forms have the same Gaussian
    limit. Everything is read off the exact histogram of omega, so the
    result is independent of any internal partitioning. An interval with
    lo > hi is a DomainError, and then an x past the sieve cap a
    CapacityError.
    """
    if x < 3:
        raise DomainError("erdos_kac requires x >= 3")
    for lo, hi in intervals:
        if lo > hi:
            raise DomainError(f"interval [{lo}, {hi}] needs lo <= hi")
    check_sieve("x", x)
    hist = _omega_histogram(x)
    llx = math.log(math.log(x))

    count = x - 2
    mean_omega = sum(k * h for k, h in enumerate(hist)) / count
    stats = []
    for lo, hi in intervals:
        inside = sum(h for k, h in enumerate(hist)
                     if lo <= (k - llx) / math.sqrt(llx) <= hi)
        stats.append(EKIntervalStat(lo, hi, inside / count, gaussian_mass(lo, hi)))
    return EKSummary(x, count, mean_omega, tuple(stats))
