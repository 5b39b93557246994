"""Numerical checks of the zero-density inequality chain, composite
densities in progressions, prime runs, and the normalized
distinct-prime-factor statistic.

The inequality checks are proven theorems: a single failure at any
admissible input is an implementation bug, and tests treat it as such.
As in numcore, numpy is imported only inside the functions that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DomainError
from .numcore import (
    PiTable,
    Progression,
    _indices,
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
]

DEFAULT_SIEVE_CAP = 50_000_000
# Integers per segment of the omega pass; the fastest of 2**16, 2**18 and
# 2**20 at x = 1e7.
_OMEGA_SEGMENT = 1 << 18


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs < rhs must hold."""

    param: int
    lhs: float
    rhs: float
    holds: bool
    detail: tuple[tuple[str, float], ...] = ()


# The pi values each check of the chain reads at its parameter. A check
# given no table counts them in one prime_counts pass; a sweep passes the
# table of one pass over the points of all its checks.
PI_POINTS = {
    "central_binom_bound": lambda n: (n, 2 * n),
    "dyadic_gap_bound": lambda k: (2 ** (k - 1), 2**k),
    "pi_power4_bound": lambda m: (4**m,),
    "density_bound_check": lambda x: (x,),
}


def _counts(check: str, value: int, table: PiTable | None) -> PiTable:
    return table or prime_counts(PI_POINTS[check](value))


def central_binom_bound(n: int, table: PiTable | None = None) -> BoundCheck:
    """n^(pi(2n) - pi(n)) < 4^n, compared in log space."""
    if n < 2:
        raise DomainError("central_binom_bound requires n >= 2")
    pi = _counts("central_binom_bound", n, table)
    gap = pi.count(2 * n) - pi.count(n)
    lhs = gap * math.log(n)
    rhs = n * math.log(4)
    return BoundCheck(n, lhs, rhs, lhs < rhs, (("gap", float(gap)),))


def dyadic_gap_bound(k: int, table: PiTable | None = None) -> BoundCheck:
    """pi(2^k) - pi(2^(k-1)) < 2^k / (k-1)."""
    if k < 2:
        raise DomainError("dyadic_gap_bound requires k >= 2")
    pi = _counts("dyadic_gap_bound", k, table)
    gap = pi.count(2**k) - pi.count(2 ** (k - 1))
    bound = 2**k / (k - 1)
    return BoundCheck(k, float(gap), bound, gap < bound)


def pi_power4_bound(m: int, table: PiTable | None = None) -> BoundCheck:
    """pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m."""
    if m < 1:
        raise DomainError("pi_power4_bound requires m >= 1")
    pi_4m = _counts("pi_power4_bound", m, table).count(4**m)
    bound = 1 + 2 ** (m + 1) + 2 ** (2 * m + 1) / m
    return BoundCheck(m, float(pi_4m), bound, pi_4m < bound)


@dataclass(frozen=True)
class DensityPoint:
    """pi(x)/x against the closed-form bound 1/x + 4/sqrt(x) + 8/log4(x)."""

    x: int
    pi_x: int
    ratio: Fraction
    bound: float
    holds: bool


def density_bound_check(x: int, table: PiTable | None = None) -> DensityPoint:
    if x < 2:
        raise DomainError("density_bound_check requires x >= 2 (log4 x must be positive)")
    pi_x = _counts("density_bound_check", x, table).count(x)
    ratio = Fraction(pi_x, x)
    log4x = math.log(x) / math.log(4)
    bound = 1 / x + 4 / math.sqrt(x) + 8 / log4x
    return DensityPoint(x, pi_x, ratio, bound, float(ratio) < bound)


def _prime_term_mask(p: Progression, n_max: int, name: str, sieve_cap: int) -> bytearray:
    """mask[n] = 1 exactly for the n in [1, n_max] with |a*n + b| prime, a >= 1;
    mask[0] and the pad byte mask[n_max + 1] are 0. The index-space sieve
    of numcore as one segment over [0, n_max + 1]. The refusal when the
    largest |term| exceeds sieve_cap names n_max as the caller's parameter
    `name`.
    """
    top = max(abs(p.term(1)), abs(p.term(n_max)))
    if top > sieve_cap:
        raise CapacityError(f"{name} {n_max} needs |{p.a}*n + {p.b}| up to {top}, "
                            f"the sieve cap is {sieve_cap}")
    ((_, mask),) = _prime_segments(p, 0, n_max + 1, n_max + 2)
    mask[0] = mask[-1] = 0
    return mask


def progression_composite_density(
    p: Progression, x: int, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Fraction:
    """Exact fraction of n in [1, x] with |a*n + b| composite: neither
    prime nor at most 1."""
    if p.a < 1:
        raise DomainError("progression_composite_density requires a >= 1")
    if x < 1:
        raise DomainError("x must be >= 1")
    primes = _prime_term_mask(p, x, "x", sieve_cap).count(1)
    return Fraction(x - primes - len(_indices(p, (-1, 0, 1), 1, x)), x)


@dataclass(frozen=True)
class RunRecord:
    """Maximal run of consecutive indices with prime progression values.

    Runs touching the scan boundary at n_max are flagged truncated;
    maximality at the right edge is then unknown.
    """

    progression: Progression
    start_n: int
    length: int
    values: tuple[int, ...]
    truncated: bool


@dataclass(frozen=True)
class RunScan:
    """The maximal runs of the greatest length, by their first indices
    (ascending); their records are built only when read."""

    progression: Progression
    n_max: int
    max_length: int
    starts: tuple[int, ...]

    def _record(self, start: int) -> RunRecord:
        end = start + self.max_length
        p = self.progression
        return RunRecord(p, start, self.max_length,
                         tuple(p.term(n) for n in range(start, end)),
                         truncated=end == self.n_max + 1)

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


def longest_prime_run(
    p: Progression, n_max: int, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> RunScan:
    """Scan n in [1, n_max] for maximal runs of prime values."""
    if p.a < 1:
        raise DomainError("longest_prime_run requires a >= 1")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    mask = _prime_term_mask(p, n_max, "n_max", sieve_cap)
    # The first run of length L + 1 starts no earlier than the first of L.
    length = at = 0
    while (found := mask.find(b"\x01" * (length + 1), at)) >= 0:
        length, at = length + 1, found
    # mask[0] and the pad byte are 0, so every maximal run is 0 1^L 0.
    run = b"\x00" + b"\x01" * length + b"\x00"
    starts = []
    at = mask.find(run) if length else -1
    while at >= 0:
        starts.append(at + 1)
        at = mask.find(run, at + length + 1)
    return RunScan(p, n_max, length, tuple(starts))


@dataclass(frozen=True)
class EKIntervalStat:
    lo: float
    hi: float
    sample_fraction: float
    gaussian_mass: float


@dataclass(frozen=True)
class EKSummary:
    x: int
    sample_count: int
    mean_omega: float
    intervals: tuple[EKIntervalStat, ...]


def gaussian_mass(lo: float, hi: float) -> float:
    """Standard normal probability of [lo, hi]."""
    return 0.5 * (math.erf(hi / math.sqrt(2)) - math.erf(lo / math.sqrt(2)))


def _omega_histogram(x: int, segment: int = _OMEGA_SEGMENT) -> list[int]:
    """hist[k] = #{3 <= n <= x : omega(n) = k}, one segment of integers at
    a time (x < 2**63, so omega(n) <= 15).

    Each segment strides only the primes q <= sqrt(x): omega counts them,
    and every power of q dividing n is multiplied into its smooth part. An
    n <= x has at most one prime factor above sqrt(x), to the first power,
    so it has one exactly when it exceeds its smooth part.
    """
    import numpy as np

    dtype = np.int32 if x < 2**31 else np.int64
    primes = _small_primes(math.isqrt(x))
    hist = np.zeros(16, dtype=np.int64)
    for lo in range(3, x + 1, segment):
        hi = min(lo + segment, x + 1)
        omega = np.zeros(hi - lo, dtype=np.int8)
        smooth = np.ones(hi - lo, dtype=dtype)
        for q in primes:
            omega[-lo % q :: q] += 1
            power = q
            while power < hi:
                smooth[-lo % power :: power] *= q
                power *= q
        omega += np.arange(lo, hi, dtype=dtype) > smooth
        hist += np.bincount(omega, minlength=len(hist))
    return hist.tolist()


def erdos_kac_samples(
    x: int, intervals: tuple[tuple[float, float], ...] = ((-1.0, 1.0),)
) -> EKSummary:
    """Summary of the normalized statistic over 3 <= n <= x.

    Interval fractions normalize by log log x (the fixed-endpoint form
    of the limit theorem), which converges much faster at desk scale
    than the per-sample log log n; both forms have the same Gaussian
    limit. Everything is read off the exact histogram of omega, so the
    result is independent of any internal partitioning. An interval with
    lo > hi is a DomainError.
    """
    if x < 3:
        raise DomainError("erdos_kac requires x >= 3")
    for lo, hi in intervals:
        if lo > hi:
            raise DomainError(f"interval [{lo}, {hi}] needs lo <= hi")
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
