"""Numerical checks of the zero-density inequality chain, composite
densities in progressions, prime runs, and the normalized
distinct-prime-factor statistic.

The inequality checks are proven theorems: a single failure at any
admissible input is an implementation bug, and tests treat it as such.
The progression scans read numcore's index-space sieve one segment at
a time, so no array spans the whole range, and the omega histogram is a
walk over Lucy's table of O(sqrt(x)) counts, `numcore._lehmer`. Each entry
point checks its domain, then the sieve cap, before any work. Nothing
here loads numpy.
"""

import math
from collections.abc import Iterator, Sequence

from . import numcore
from .errors import DomainError, check_sieve
from .numcore import (
    PrimeTable,
    Progression,
    Record,
    _prime_segments,
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
    "chain_sweep",
    "dyadic_gap_bound",
    "pi_power4_bound",
    "density_bound_check",
    "progression_composite_densities",
    "longest_prime_run",
    "run_length_bounds",
    "run_length_threshold",
    "erdos_kac_samples",
    "gaussian_mass",
    "pi_points",
    "scan_need",
]


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


def chain_sweep(check: str, points: Sequence[int]) -> Iterator[BoundCheck | DensityPoint]:
    """`check`, a key of PI_POINTS, at each of the non-empty `points`, read
    off one prime_counts pass over the pi values they all read. Before the
    pass, `pi_points` refuses the first point's domain, then the last
    point's sieve need: for non-decreasing points, the refusals of a sweep
    that checked its points one by one."""
    if not points:
        raise DomainError("points must be non-empty")
    pi_points(check, points[0])
    pi_points(check, points[-1])
    table = prime_counts(x for point in points for x in pi_points(check, point))
    evaluate = globals()[check]  # as rebound, if it is
    for point in points:
        yield evaluate(point, table)


def progression_composite_densities(p: Progression, points: list[int]) -> "list[Fraction]":
    """Exact fraction of n in [1, x] with |a*n + b| composite, neither
    prime nor at most 1, at each x of the non-decreasing `points`, from
    one sieve pass; the first's domain and the last's `scan_need` first."""
    from fractions import Fraction

    if not points or any(y < x for x, y in zip(points, points[1:])):
        raise DomainError("points must be a non-empty, non-decreasing list")
    scan_need("progression_composite_densities", "x",
              points[-1] if points[0] >= 1 else points[0], p)
    return [Fraction(x - c, x)
            for x, c in zip(points, numcore._segment_counts(p, 1, points[-1], points, 1))]


class RunRecord(Record):
    """Maximal run of consecutive indices with prime progression values.

    Runs touching the scan boundary at n_max are flagged truncated;
    maximality at the right edge is then unknown.
    """

    __slots__ = ("progression", "start_n", "length", "values", "truncated")
    _json = ("start_n", "length", "values", "truncated")


class RunScan(Record):
    """Every maximal run of the greatest length, by its first index
    (ascending); the runs' records are built only when read."""

    __slots__ = ("progression", "n_max", "max_length", "starts")
    _json = ("n_max", "max_length", "runs")

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
    def runs(self) -> tuple[RunRecord, ...]:
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


def _run_windows(p: Progression, n_max: int) -> Iterator[tuple[int, int, int, bytearray, int]]:
    """The run scan of n in [1, n_max], one sieve segment at a time: per
    segment (length, first, base, window, end), where window[:end] holds
    whole maximal runs, window[0] being n = base, length is the longest
    run so far and first the start of its first run of that length (0
    while length is 0). Past n_max the scan reads a 0."""
    length = first = 0
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
        at = 0
        while (found := window.find(b"\x01" * (length + 1), at, end)) >= 0:
            length, at = length + 1, found
        if at:  # the length grew here; no run starts at the 0 of window[0]
            first = base + at
        yield length, first, base, window, end
        window = window[end - 1 :]


def longest_prime_run(p: Progression, n_max: int) -> RunScan:
    """Scan n in [1, n_max] for maximal runs of prime values, one sieve
    segment at a time, once its `scan_need` has passed, and keep the start
    of every run of the greatest length."""
    scan_need("longest_prime_run", "n_max", n_max, p)
    length, starts = 0, []
    for longest, _, base, window, end in _run_windows(p, n_max):
        if longest > length:
            length, starts = longest, []
        # No run in window[:end] is longer, so each 1^length is a whole run.
        run = b"\x01" * length
        at = window.find(run, 0, end) if length else -1
        while at >= 0:
            starts.append(base + at)
            at = window.find(run, at + length + 1, end)
    return RunScan(p, n_max, length, tuple(starts))


def run_length_bounds(steps: range, b: int, n_max: int) -> Iterator[BoundCheck]:
    """For each step a of the non-empty range `steps`, the longest run of
    prime values of a*n + b over n in [1, n_max] against the a^2 the
    construction allows past `run_length_threshold`:
    BoundCheck(a, max_length, a*a, within_bound), where a longer run is
    within bound only when its first run of that length starts at or
    before the threshold. Each step's scan keeps that length and start
    alone, not every run as `longest_prime_run` does.

    Every step's `scan_need` refusal comes before the first scan: a step
    below 1 is at an end of the range, and since |a*m + b| is convex in a,
    so is the largest term."""
    if not steps:
        raise DomainError("steps must be a non-empty range")
    lo, hi = sorted((steps[0], steps[-1]))
    # hi = 0 is no step: lo < 0 refuses first.
    scan_need("longest_prime_run", "n_max", n_max, Progression(lo, b), Progression(hi or lo, b))
    for a in steps:
        p = Progression(a, b)
        for length, first, *_ in _run_windows(p, n_max):
            pass  # the last segment's length and first start are the scan's
        yield BoundCheck(a, length, a * a, length <= a * a or first <= run_length_threshold(p))


class EKIntervalStat(Record):
    __slots__ = ("lo", "hi", "sample_fraction", "gaussian_mass")


class EKSummary(Record):
    __slots__ = ("x", "sample_count", "mean_omega", "intervals")


def gaussian_mass(lo: float, hi: float) -> float:
    """Standard normal probability of [lo, hi]."""
    return 0.5 * (math.erf(hi / math.sqrt(2)) - math.erf(lo / math.sqrt(2)))


def _omega_histogram(x: int) -> list[int]:
    """hist[k] = #{3 <= n <= x : omega(n) = k} (x < 2**63, so k <= 15), by
    a walk over Lucy's table (the second phase of min_25's sieve), every
    row of it asked of `numcore._lehmer`, in O(x^(3/4)) time and
    O(sqrt(x)) memory.

    The primes but 2 start bucket 1. The walk visits each m whose primes,
    ascending, leave room for one more square: m*q*q <= x for a prime q
    above them all, the i-th prime (0-based). For each such q and e >= 1
    with m*q**(e+1) <= x, the n = m*q**e*P with P prime above q add
    pi(x // (m*q**e)) - (i + 1) to bucket omega(m) + 2, n = m*q**(e+1)
    counts itself in bucket omega(m) + 1, and m*q**e is visited next.
    When m*q**3 > x, e is 1 and m*q has nothing to visit, so those q,
    five in six of all at x = 1e7, are summed at once.
    """
    r = math.isqrt(x)
    small, large = numcore._lehmer(x, range(1, r + 1))  # pi(v) for v <= r, and pi(x // i)
    primes = [v for v in range(2, r + 1) if small[v] > small[v - 1]]
    hist = [0] * 16
    hist[1] = large[1] - 1
    todo = [(1, 0, 0)]  # (m, index of the least prime above m's, omega(m))
    while todo:
        m, i, k = todo.pop()
        v = x // m
        end = small[math.isqrt(v)]  # primes[:end] are the q with q*q <= v
        while i < end and (q := primes[i]) ** 3 <= v:
            mq = m * q
            while mq * q <= x:
                hist[k + 2] += (large[mq] if mq <= r else small[x // mq]) - i - 1
                hist[k + 1] += 1
                todo.append((mq, i + 1, k + 1))
                mq *= q
            i += 1
        if i < end:
            split = min(max(small[r // m], i), end)  # m*q <= r below it
            hist[k + 1] += end - i
            hist[k + 2] += (sum(large[m * q] for q in primes[i:split])
                            + sum(small[v // q] for q in primes[split:end])
                            - (i + 1 + end) * (end - i) // 2)
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
