"""Prime-producing quadratics and the real-exponent Fermat equation.

Root finding runs at 50 decimal digits of working precision via mpmath,
so residual claims down to 1e-12 are honest. mpmath is imported only
inside the functions that use it, so the integer searches here do not
pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BracketError, CapacityError, DomainError
from .numcore import is_prime

__all__ = [
    "LuckyResult",
    "StreakResult",
    "RootResult",
    "lucky_check",
    "euler_lucky_search",
    "prime_streak",
    "fermat_real_root",
    "rational_scan",
]

WORKING_DPS = 50


@dataclass(frozen=True)
class LuckyResult:
    """Whether n^2 - n + C is prime for all 1 <= n <= C-1.

    C = 1 is excluded by convention (the range is empty); the standard
    range stops at C-1 because n = C always gives the composite C^2.
    """

    C: int
    is_lucky: bool
    first_failure: int | None


def lucky_check(C: int) -> LuckyResult:
    if C < 1:
        raise DomainError("C must be >= 1")
    if C == 1:
        return LuckyResult(1, False, None)
    for n in range(1, C):
        if not is_prime(n * n - n + C):
            return LuckyResult(C, False, n)
    return LuckyResult(C, True, None)


def euler_lucky_search(C_max: int) -> list[int]:
    """All lucky constants C <= C_max; equals {2, 3, 5, 11, 17, 41} for
    C_max >= 41."""
    if C_max < 1:
        raise DomainError("C_max must be >= 1")
    return [C for C in range(2, C_max + 1) if lucky_check(C).is_lucky]


@dataclass(frozen=True)
class StreakResult:
    C: int
    length: int
    first_failure_n: int
    first_failure_value: int


def prime_streak(C: int, scan_cap: int = 10**6) -> StreakResult:
    """Length of the initial run of n >= 0 with n^2 + n + C prime."""
    if C < 1:
        raise DomainError("C must be >= 1")
    n = 0
    while n <= scan_cap:
        v = n * n + n + C
        if not is_prime(v):
            return StreakResult(C, n, n, v)
        n += 1
    raise CapacityError(f"streak for C={C} exceeds scan cap {scan_cap}")


@dataclass(frozen=True)
class RootResult:
    """Bisection root of x^t + y^t - z^t on a sign-change bracket."""

    triple: tuple[int, int, int]
    s: float
    residual: float
    bracket: tuple[float, float]
    refined_bracket: tuple[float, float]
    iterations: int


def _fermat_f(x: int, y: int, z: int):
    import mpmath as mp

    def f(t):
        return mp.power(x, t) + mp.power(y, t) - mp.power(z, t)

    return f


def fermat_real_root(
    x: int,
    y: int,
    z: int,
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> RootResult:
    """Bisect f(t) = x^t + y^t - z^t to bracket width <= tol.

    Iteration count is the deterministic ceil(log2((hi-lo)/tol)).
    """
    import mpmath as mp

    if min(x, y, z) < 1:
        raise DomainError("x, y, z must be positive integers")
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi = bracket
    if not lo < hi:
        raise DomainError("bracket must satisfy lo < hi")
    with mp.workdps(WORKING_DPS):
        f = _fermat_f(x, y, z)
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0:
            return RootResult((x, y, z), float(lo), 0.0, bracket,
                              (lo - tol, lo + tol), 0)
        if f_hi == 0:
            return RootResult((x, y, z), float(hi), 0.0, bracket,
                              (hi - tol, hi + tol), 0)
        if mp.sign(f_lo) == mp.sign(f_hi):
            raise BracketError(
                f"f({lo}) = {float(f_lo)} and f({hi}) = {float(f_hi)} "
                "have the same sign"
            )
        iterations = max(0, math.ceil(math.log2((hi - lo) / tol)))
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = f_lo
        for _ in range(iterations):
            mid = (a + b) / 2
            fm = f(mid)
            if fm == 0:
                # Exact hit: report a symmetric bracket of width 2*tol.
                return RootResult(
                    (x, y, z), float(mid), 0.0, bracket,
                    (float(mid - tol), float(mid + tol)), iterations,
                )
            if mp.sign(fm) == mp.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        s = (a + b) / 2
        residual = abs(f(s))
        return RootResult(
            (x, y, z), float(s), float(residual), bracket,
            (float(a), float(b)), iterations,
        )


def rational_scan(
    root: RootResult, q_max: int, tol: float = 1e-9
) -> list[Fraction]:
    """Reduced rationals p/q (q <= q_max) strictly inside the root's
    original bracket with |f(p/q)| < tol.

    Empty output is numerical evidence that the root is not a small
    rational.
    """
    import mpmath as mp

    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    x, y, z = root.triple
    lo, hi = root.bracket
    hits = []
    with mp.workdps(WORKING_DPS):
        f = _fermat_f(x, y, z)
        for q in range(1, q_max + 1):
            p_lo = math.floor(lo * q) + 1
            p_hi = math.ceil(hi * q) - 1
            for p in range(p_lo, p_hi + 1):
                if math.gcd(p, q) != 1:
                    continue
                t = mp.mpf(p) / q
                if not (lo < t < hi):
                    continue
                if abs(f(t)) < tol:
                    hits.append(Fraction(p, q))
    return sorted(hits)
