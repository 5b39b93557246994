"""Prime-producing quadratics and the real-exponent Fermat equation.

Root finding runs at 50 decimal digits of working precision via mpmath,
so residual claims down to 1e-12 are honest. mpmath is imported only
inside the functions that use it, and fractions only in rational_scan,
so the integer searches here pay for loading neither.
"""

import math

from .errors import BracketError, CapacityError, DomainError, first
from .numcore import Record, is_prime

__all__ = [
    "StreakResult",
    "RootResult",
    "euler_lucky_search",
    "prime_streak",
    "fermat_real_root",
    "rational_scan",
]

WORKING_DPS = 50
# The most n that prime_streak, and the most q that rational_scan, scan.
SCAN_CAP = 10**6


def euler_lucky_search(C_max: int) -> list[int]:
    """All lucky constants C <= C_max, those with n^2 - n + C prime for
    all 1 <= n <= C-1: 2, 3, 5, 11, 17 and 41, and no other.

    C = 1 is excluded by convention (the range is empty); the standard
    range stops at C-1 because n = C always gives the composite C^2.
    Only C <= min(C_max, 41) is scanned. n^2 - n + C is prime for every
    1 <= n < C exactly when Q(sqrt(1 - 4C)) has class number 1
    (Rabinowitz, 1913), and the imaginary quadratic fields of class
    number 1 are the nine of Heegner (1952), Baker (1966) and Stark
    (1967), the last of discriminant -163 = 1 - 4*41.
    """
    if C_max < 1:
        raise DomainError("C_max must be >= 1")
    return [C for C in range(2, min(C_max, 41) + 1)
            if all(is_prime(n * n - n + C) for n in range(1, C))]


class StreakResult(Record):
    __slots__ = ("C", "length", "first_failure_n", "first_failure_value")
    _json = ("length", "first_failure_n", "first_failure_value")


def prime_streak(C: int) -> StreakResult:
    """Length of the initial run of n >= 0 with n^2 + n + C prime."""
    if C < 1:
        raise DomainError("C must be >= 1")
    n = first(lambda n: not is_prime(n * n + n + C), 0, SCAN_CAP,
              f"streak for C={C} exceeds scan cap {SCAN_CAP}")
    return StreakResult(C, n, n, n * n + n + C)


class RootResult(Record):
    """Bisection root of x^t + y^t - z^t on a sign-change bracket."""

    __slots__ = ("triple", "s", "residual", "bracket", "refined_bracket", "iterations")
    _json = ("s", "residual", "refined_bracket", "iterations")


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

    Iteration count is the deterministic ceil(log2((hi-lo)/tol)); a
    (hi-lo)/tol past float range is a CapacityError, raised after the
    exact-endpoint returns and the sign check, before the first step.
    """
    import mpmath as mp

    if min(x, y, z) < 1:
        raise DomainError("x, y, z must be positive integers")
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi = bracket
    if not lo < hi:
        raise DomainError("bracket must satisfy lo < hi")

    def hit(t, iterations: int = 0) -> RootResult:
        """f(t) = 0 exactly: a symmetric bracket of width 2*tol around t."""
        return RootResult((x, y, z), float(t), 0.0, bracket,
                          (float(t - tol), float(t + tol)), iterations)

    with mp.workdps(WORKING_DPS):
        f = _fermat_f(x, y, z)
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0:
            return hit(lo)
        if f_hi == 0:
            return hit(hi)
        if mp.sign(f_lo) == mp.sign(f_hi):
            raise BracketError(
                f"f({lo}) = {float(f_lo)} and f({hi}) = {float(f_hi)} "
                "have the same sign"
            )
        if math.isinf(ratio := (hi - lo) / tol):
            raise CapacityError(f"bracket width over tol, ({hi} - {lo}) / {tol}, "
                                "is past float range")
        iterations = max(0, math.ceil(math.log2(ratio)))
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = f_lo
        for _ in range(iterations):
            mid = (a + b) / 2
            fm = f(mid)
            if fm == 0:
                return hit(mid, iterations)
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


def _exact(v) -> tuple[int, int]:
    """An mpf as the integer pair (num, den), den > 0, of its exact value."""
    man, exp = v.man_exp  # the mantissa without its sign
    man = -man if v < 0 else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _scan_window(f, root: RootResult, tol: float, q_max: int):
    """Ends wl < wr, within the bracket, outside which |f| >= 2*tol on it.

    f has a root only if z > max(x, y) or z < min(x, y), and then
    g(t) = f(t)/z^t = (x/z)^t + (y/z)^t - 1 is strictly monotone. Once
    f(wl) and f(wr) have opposite signs, or one is 0 at a bracket end, its
    one zero lies in [wl, wr], so for t in [lo, wl], |f(t)| = z^t |g(t)|
    >= z^lo |g(wl)| = |f(wl)| z^(lo - wl), and for t in [wr, hi],
    |f(t)| >= z^wr |g(wr)| = |f(wr)|, as z >= 1. The window is
    [a - d, b + d] around the refined bracket [a, b], clipped to the
    bracket, with d = tol doubled until both bounds reach 2*tol or the
    window covers the bracket. Once (wr - wl)*q_max*(q_max + 1)/2, its room
    for p/q, passes SCAN_CAP, it is refused, as the final one would be.
    """
    import mpmath as mp

    z = root.triple[2]
    lo, hi = (mp.mpf(v) for v in root.bracket)
    a, b = root.refined_bracket
    d = mp.mpf(tol)
    while True:
        wl, wr = max(a - d, lo), min(b + d, hi)
        if (wr - wl) * q_max * (q_max + 1) / 2 > SCAN_CAP:
            raise CapacityError(f"q_max {q_max} on a window over {float(wr - wl):.3g} wide "
                                f"passes the scan cap of {SCAN_CAP} candidates")
        if wl == lo and wr == hi:
            return lo, hi
        f_l, f_r = f(wl), f(wr)
        if (f_l * f_r <= 0
                and (wl == lo or abs(f_l) * mp.power(z, lo - wl) >= 2 * tol)
                and (wr == hi or abs(f_r) >= 2 * tol)):
            return wl, wr
        d *= 2


def rational_scan(
    root: RootResult, q_max: int, tol: float = 1e-9
) -> "list[Fraction]":
    """Reduced rationals p/q (q <= q_max) strictly inside the root's
    original bracket with |f(p/q)| < tol, f evaluated at 50 digits.

    Only the p/q strictly inside `_scan_window` are evaluated, O(q_max)
    of them where the whole bracket holds O(q_max^2). Every p/q skipped
    is proven to have |f| >= 2*tol, so an empty result is exact for the
    50-digit test, not just numerical evidence that the root is not a
    small rational. A q_max past SCAN_CAP is refused before the scan, and
    a window with room for more candidates than that as it is found.
    """
    from fractions import Fraction

    import mpmath as mp

    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    if not tol > 0:
        return []  # no |f| is below it
    if q_max > SCAN_CAP:
        raise CapacityError(f"q_max {q_max} exceeds the scan cap {SCAN_CAP}")
    hits = []
    with mp.workdps(WORKING_DPS):
        f = _fermat_f(*root.triple)
        (ln, ld), (rn, rd) = (_exact(w) for w in _scan_window(f, root, tol, q_max))
        for q in range(1, q_max + 1):
            # The p with wl < p/q < wr, exactly; the window is in the bracket.
            for p in range(ln * q // ld + 1, -(-rn * q // rd)):
                if math.gcd(p, q) == 1 and abs(f(mp.mpf(p) / q)) < tol:
                    hits.append(Fraction(p, q))
    return sorted(hits)
