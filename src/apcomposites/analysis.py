"""Numerical checks of the zero-density inequality chain, composite
densities in progressions, prime runs, and the normalized
distinct-prime-factor statistic.

The inequality checks are proven theorems: a single failure at any
admissible input is an implementation bug, and tests treat it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .numcore import (
    PrimeTable,
    Progression,
    prime_count,
    sieve,
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


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs < rhs must hold."""

    param: int
    lhs: float
    rhs: float
    holds: bool
    detail: tuple[tuple[str, float], ...] = ()


def central_binom_bound(n: int, table: PrimeTable | None = None) -> BoundCheck:
    """n^(pi(2n) - pi(n)) < 4^n, compared in log space."""
    if n < 2:
        raise DomainError("central_binom_bound requires n >= 2")
    table = table or sieve(2 * n)
    gap = prime_count(2 * n, table) - prime_count(n, table)
    lhs = gap * math.log(n)
    rhs = n * math.log(4)
    return BoundCheck(n, lhs, rhs, lhs < rhs, (("gap", float(gap)),))


def dyadic_gap_bound(k: int, table: PrimeTable | None = None) -> BoundCheck:
    """pi(2^k) - pi(2^(k-1)) < 2^k / (k-1)."""
    if k < 2:
        raise DomainError("dyadic_gap_bound requires k >= 2")
    table = table or sieve(2**k)
    gap = prime_count(2**k, table) - prime_count(2 ** (k - 1), table)
    bound = 2**k / (k - 1)
    return BoundCheck(k, float(gap), bound, gap < bound)


def pi_power4_bound(m: int, table: PrimeTable | None = None) -> BoundCheck:
    """pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m."""
    if m < 1:
        raise DomainError("pi_power4_bound requires m >= 1")
    pi_4m = prime_count(4**m, table)
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


def density_bound_check(x: int, table: PrimeTable | None = None) -> DensityPoint:
    if x < 2:
        raise DomainError("density_bound_check requires x >= 2 (log4 x must be positive)")
    pi_x = prime_count(x, table)
    ratio = Fraction(pi_x, x)
    log4x = math.log(x) / math.log(4)
    bound = 1 / x + 4 / math.sqrt(x) + 8 / log4x
    return DensityPoint(x, pi_x, ratio, bound, float(ratio) < bound)


def _term_values(p: Progression, n_max: int) -> np.ndarray:
    return np.abs(np.arange(p.a + p.b, p.a * n_max + p.b + 1, p.a))


def _value_table(p: Progression, n_max: int, sieve_cap: int) -> PrimeTable:
    vmax = int(max(abs(p.term(1)), abs(p.term(n_max)))) + 1
    vmax = max(vmax, 2)
    if vmax > sieve_cap:
        raise CapacityError(f"needs sieve to {vmax}, cap is {sieve_cap}")
    return sieve(vmax)


def progression_composite_density(
    p: Progression, x: int, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Fraction:
    """Exact fraction of n in [1, x] with |a*n + b| composite."""
    if p.a < 1:
        raise DomainError("progression_composite_density requires a >= 1")
    if x < 1:
        raise DomainError("x must be >= 1")
    table = _value_table(p, x, sieve_cap)
    v = _term_values(p, x)
    composite = (v > 1) & ~table.membership[v]
    return Fraction(int(np.count_nonzero(composite)), x)


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
    progression: Progression
    n_max: int
    max_length: int
    best: RunRecord | None
    max_runs: tuple[RunRecord, ...]


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
    table = _value_table(p, n_max, sieve_cap)
    v = _term_values(p, n_max)
    prime_mask = table.membership[v]

    padded = np.concatenate(([False], prime_mask, [False]))
    diffs = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diffs == 1) + 1  # 1-based n
    ends = np.flatnonzero(diffs == -1) + 1  # exclusive

    if len(starts) == 0:
        return RunScan(p, n_max, 0, None, ())
    lengths = ends - starts
    max_len = int(lengths.max())
    records = []
    for s, e in zip(starts, ends):
        if e - s != max_len:
            continue
        vals = tuple(int(p.term(n)) for n in range(int(s), int(e)))
        records.append(
            RunRecord(p, int(s), int(e - s), vals, truncated=bool(e == n_max + 1))
        )
    return RunScan(p, n_max, max_len, records[0], tuple(records))


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


def _omega_array(x: int) -> np.ndarray:
    """omega(n) for 0 <= n <= x by one strided pass per prime."""
    primes = np.flatnonzero(sieve(x).membership)
    om = np.zeros(x + 1, dtype=np.int16)
    for prime in primes:
        om[prime::prime] += 1
    return om


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
    om = _omega_array(x)[3:]
    hist = [int(np.count_nonzero(om == k)) for k in range(int(om.max()) + 1)]
    llx = math.log(math.log(x))

    count = x - 2
    mean_omega = sum(k * h for k, h in enumerate(hist)) / count
    stats = []
    for lo, hi in intervals:
        inside = sum(h for k, h in enumerate(hist)
                     if lo <= (k - llx) / math.sqrt(llx) <= hi)
        stats.append(EKIntervalStat(lo, hi, inside / count, gaussian_mass(lo, hi)))
    return EKSummary(x, count, mean_omega, tuple(stats))
