"""Explicit composite constructions in arithmetic progressions.

Each generator returns witnesses that carry their own proof of
compositeness: either a full prime factorization or, for values past
the factorization cap, a pair of divisors both greater than 1. Every
witness re-verifies its defining identity on construction.
"""

import math
import sys
from collections.abc import Sequence

from .errors import (
    CapacityError,
    DegenerateInputError,
    DomainError,
    WrongBranchError,
    check_digits,
    check_sieve,
    first,
)
from . import numcore
from .numcore import (
    Factorization,
    Progression,
    Record,
    _of_primes,
    _prime_segments,
    factorize,
    is_prime,
)

__all__ = [
    "DivisorPair",
    "CompositeWitness",
    "KCompositeWitness",
    "PolyCompositeRecord",
    "ConsecutiveResult",
    "Twin3Result",
    "witness_multiple_of_b",
    "witness_unit_b",
    "witness_power",
    "factorial_consecutive",
    "consecutive_in_progression",
    "k_composite_witnesses",
    "polynomial_composites",
    "three_composites_4n3",
]

# Witnesses up to this value carry a full factorization, past it a divisor
# pair. factorize completes below psi_13 = 3.3e24, but a higher cap would
# change the proof, and so the output, of every witness past 1e12.
FACTORIZATION_CAP = 10**12
# Indices scanned for a run of composites, and for a prime term, an
# admissible s or a k with f(k) > 1, before a CapacityError.
CONSECUTIVE_SCAN_CAP = 10**7
SEARCH_CAP = 10**6


class DivisorPair(Record):
    """Compositeness proof by a nontrivial split value = d * cofactor."""

    __slots__ = ("value", "d", "cofactor")
    _json = ("type", "value", "d", "cofactor")
    type = "divisor_pair"

    def verify(self) -> bool:
        return self.d > 1 and self.cofactor > 1 and self.d * self.cofactor == self.value


class CompositeWitness(Record):
    """Index n in a progression whose term is provably composite; the
    proof is a Factorization or a DivisorPair."""

    __slots__ = ("progression", "n", "value", "proof", "construction_tag")
    _json = ("a", "b", "n", "value", "tag", "proof")
    a = property(lambda self: self.progression.a)
    b = property(lambda self: self.progression.b)
    tag = property(lambda self: self.construction_tag)

    def verify(self) -> bool:
        if self.progression.term(self.n) != self.value:
            return False
        if isinstance(self.proof, Factorization):
            return (
                self.proof.value == abs(self.value)
                and self.proof.big_omega >= 2
                and self.proof.verify()
            )
        return self.proof.value == abs(self.value) and self.proof.verify()


class KCompositeWitness(Record):
    """Progression term with exactly k prime factors.

    mode "distinct" counts without multiplicity (omega), mode
    "multiplicity" counts with it (big omega). k = 1 terms are primes,
    not composites; compositeness starts at k = 2.
    """

    __slots__ = ("progression", "n", "value", "proof", "k", "mode")
    _json = ("a", "b", "n", "value", "k", "mode", "proof")
    a = property(lambda self: self.progression.a)
    b = property(lambda self: self.progression.b)

    def verify(self) -> bool:
        if self.progression.term(self.n) != self.value:
            return False
        if not self.proof.verify() or self.proof.value != abs(self.value):
            return False
        count = self.proof.omega if self.mode == "distinct" else self.proof.big_omega
        return count == self.k


class PolyCompositeRecord(Record):
    """f(k + j*f(k)) is a multiple of f(k) and strictly larger."""

    __slots__ = ("coeffs", "k", "j", "index", "value", "divisor")
    _json = ("k", "j", "index", "value", "divisor")

    def verify(self) -> bool:
        return (
            self.index == self.k + self.j * self.divisor
            and self.value % self.divisor == 0
            and self.value > self.divisor > 1
        )


def _prove_composite(value: int, hint_divisor: int | None = None) -> Factorization | DivisorPair:
    v = abs(value)
    if v <= 1:
        raise DegenerateInputError(f"|{value}| <= 1 is neither prime nor composite")
    if v <= FACTORIZATION_CAP:
        f = factorize(v)
        if f.big_omega < 2:
            raise DegenerateInputError(f"{value} is prime, not composite")
        return f
    if hint_divisor is None or hint_divisor <= 1 or v % hint_divisor != 0:
        raise CapacityError(f"{value} exceeds factorization cap and has no divisor hint")
    cof = v // hint_divisor
    if cof <= 1:
        raise DegenerateInputError(f"divisor hint {hint_divisor} gives a trivial cofactor")
    return DivisorPair(v, hint_divisor, cof)


def witness_multiple_of_b(p: Progression, m: int) -> CompositeWitness:
    """Composite term at n = b*m, where the value b*(a*m + 1) is divisible by b.

    Only applies when |b| > 1.
    """
    if abs(p.b) <= 1:
        raise WrongBranchError("witness_multiple_of_b needs |b| > 1; use witness_unit_b")
    if m < 1:
        raise DomainError("m must be >= 1")
    n = p.b * m
    value = p.term(n)
    if abs(value) <= 1 or abs(p.a * m + 1) <= 1:
        raise DegenerateInputError(f"value {value} degenerate at m={m}; raise m")
    proof = _prove_composite(value, hint_divisor=abs(p.b))
    return CompositeWitness(p, n, value, proof, "multiple_of_b")


def _minimal_unit_m(p: Progression) -> int:
    m = 1
    while abs(p.a * m + p.b) <= 1:
        m += 1
    return m


def witness_unit_b(p: Progression, m: int) -> CompositeWitness:
    """Composite term for offsets b = +-1, via the identity

        a*(a*(a*m+b) + m) + b = (a^2 + 1)*(a*m + b).
    """
    if p.b not in (-1, 1):
        raise WrongBranchError("witness_unit_b needs b = +-1; use witness_multiple_of_b")
    if m < 1:
        raise DomainError("m must be >= 1")
    inner = p.a * m + p.b
    if abs(inner) <= 1:
        raise DegenerateInputError(
            f"|a*m + b| = {abs(inner)} <= 1 at m={m}; minimal admissible m is "
            f"{_minimal_unit_m(p)}"
        )
    n = p.a * inner + m
    value = p.term(n)
    assert value == (p.a * p.a + 1) * inner
    proof = _prove_composite(value, hint_divisor=p.a * p.a + 1)
    return CompositeWitness(p, n, value, proof, "unit_b")


def witness_power(a: int, sign: int, k: int) -> CompositeWitness:
    """Composite term (3a)^(2k+1) + sign at index n = 3^(2k+1) * a^(2k).

    (3a)^(2k+1) - 1 is divisible by 3a - 1; (3a)^(2k+1) + 1 by 3a + 1.
    """
    if a < 1:
        raise DomainError("a must be >= 1")
    if sign not in (-1, 1):
        raise DomainError("sign must be +-1")
    if k < 1:
        raise DomainError("k must be >= 1")
    check_digits((2 * min(k, 10**9) + 1) * math.log10(3 * a))  # a clamped k: a finite float
    n = 3 ** (2 * k + 1) * a ** (2 * k)
    value = (3 * a) ** (2 * k + 1) + sign
    prog = Progression(a, sign)
    assert prog.term(n) == value
    divisor = 3 * a + sign
    if divisor <= 1 or value // divisor <= 1:
        raise DegenerateInputError(f"divisor {divisor} trivial for a={a}, sign={sign}")
    proof = _prove_composite(value, hint_divisor=divisor)
    return CompositeWitness(prog, n, value, proof, "power")


def factorial_consecutive(m: int) -> list[CompositeWitness]:
    """Witnesses for the m-1 consecutive composites m!+2, ..., m!+m.

    j divides m!+j for 2 <= j <= m. Values past the cap carry the
    divisor pair (j, m!/j + 1) instead of a full factorization. An m past
    sys.maxsize, the most math.factorial takes, is refused, as is an m! past `check_digits`.
    """
    if m < 3:
        raise DomainError("factorial_consecutive requires m >= 3")
    if m > sys.maxsize:
        raise CapacityError(f"m {m} exceeds {sys.maxsize}, the most math.factorial takes")
    check_digits(math.lgamma(m + 1) / math.log(10))
    fact = math.factorial(m)
    prog = Progression(1, 0)
    out = []
    for j in range(2, m + 1):
        value = fact + j
        proof = _prove_composite(value, hint_divisor=j)
        out.append(CompositeWitness(prog, value, value, proof, "factorial"))
    return out


class ConsecutiveResult(Record):
    # Sufficient m for the factorial construction to cover the request:
    # S_m contains N progression terms once m >= a*N + |b| + 2.
    __slots__ = ("progression", "requested", "start_n", "witnesses", "factorial_m_bound")
    _json = ("start_n", "witnesses", "factorial_m_bound")


def consecutive_in_progression(p: Progression, N: int) -> ConsecutiveResult:
    """Least start index n0 >= 1 with N consecutive composite terms.

    Terms with |value| <= 1 are neither prime nor composite and break a run.
    The indices are read from the segment sieve, in windows that double
    from one segment, so the base primes reach only the square root of
    the terms read so far. The scan stops at CONSECUTIVE_SCAN_CAP and at
    the first index whose |term| exceeds FACTORIZATION_CAP: a run that
    reaches that index has a term with no proof of compositeness.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if p.a < 1:
        raise DomainError("consecutive_in_progression requires a >= 1")
    # The first n >= 1 with |a*n + b| > FACTORIZATION_CAP; when it is not
    # n = 1, every later term exceeds the cap too.
    n_big = 1 if abs(p.term(1)) > FACTORIZATION_CAP else (FACTORIZATION_CAP - p.b) // p.a + 1
    hi = min(CONSECUTIVE_SCAN_CAP, n_big - 1)
    if N > hi:  # refused before the run's pattern is built
        raise _no_run(N, hi, "")
    # In the masks, 1 marks a term that is not composite: a prime, or
    # one of |value| <= 1. A run is N zeros.
    run = bytes(N)
    window = bytearray()  # the last N - 1 indices read, then a segment
    lo, size = 1, numcore._SEGMENT
    while lo <= hi:
        for start, mask in _prime_segments(p, lo, min(lo + size - 1, hi), 1):
            base = start - len(window)  # the n of window[0]
            window += mask
            if (at := window.find(run)) >= 0:
                n0 = base + at
                witnesses = tuple(
                    CompositeWitness(p, n, p.term(n), _prove_composite(p.term(n)),
                                     "consecutive")
                    for n in range(n0, n0 + N)
                )
                return ConsecutiveResult(p, N, n0, witnesses, p.a * N + abs(p.b) + 2)
            del window[: max(0, len(window) - (N - 1))]
        lo, size = lo + size, 2 * size
    raise _no_run(N, hi, f" (longest partial run: {len(window) - 1 - window.rfind(1)})")


def _no_run(N: int, hi: int, detail: str) -> CapacityError:
    past = ("" if hi == CONSECUTIVE_SCAN_CAP else
            f"; past it |a*n + b| > {FACTORIZATION_CAP}, the factorization cap")
    return CapacityError(f"no run of {N} composites found for n <= {hi}{detail}{past}")


def k_composite_witnesses(
    p: Progression, k: int, count: int, mode: str = "distinct"
) -> list[KCompositeWitness]:
    """`count` distinct progression terms with exactly k prime factors.

    Each witness is a prime term t = a*m + b, found by bounded scan, times
    k - 1 primes q = s*a^2 + 1, by the identity

        a*(s*a*(a*m+b) + m) + b = (s*a^2 + 1)*(a*m + b).

    Each q is the least such prime past a floor: the last prime taken in
    distinct mode; in multiplicity mode 1, so one q, found once, serves
    every step of every witness. A witness whose digits, the product so
    far times q for each prime still to take, pass `check_digits` is
    refused as soon as the estimate does. For a < 0 no term past
    m = (b - 2) // |a| is at least 2, so the prime-term search stops there.
    """
    if math.gcd(abs(p.a), abs(p.b)) != 1:
        raise DomainError("k_composite_witnesses requires gcd(a, b) = 1")
    if k < 1 or count < 1:
        raise DomainError("k and count must be >= 1")
    if mode not in ("distinct", "multiplicity"):
        raise DomainError(f"unknown mode {mode!r}")
    check_digits((min(k, 10**9) - 1) * math.log10(p.a * p.a + 1))

    last = SEARCH_CAP if p.a > 0 else min(SEARCH_CAP, max(0, (p.b - 2) // -p.a))
    bases: list[int] = []
    m = 0
    while len(bases) < count:
        where = (f"in [{m + 1}, {last}]" if last == SEARCH_CAP
                 else f">= {m + 1}: a*m+b < 2 for every m > {last}")
        m = first(lambda n: is_prime(p.term(n)), m + 1, last,
                  f"no prime term a*m+b found for m {where}")
        bases.append(p.term(m))

    a2, distinct, q = p.a * p.a, mode == "distinct", 0
    out = []
    for t in bases:
        value, primes = t, [t]
        for left in reversed(range(k - 1)):
            if distinct or not q:
                floor = primes[-1] if distinct else 1
                s = first(lambda s: is_prime(s * a2 + 1), (floor - 1) // a2 + 1, SEARCH_CAP,
                          f"no admissible s <= {SEARCH_CAP} with s*{p.a}^2+1 prime")
                q = s * a2 + 1
            primes.append(q)
            value *= q
            check_digits(math.log10(value) + left * math.log10(q))
        n = (value - p.b) // p.a  # exact: every q is 1 mod a^2
        assert p.term(n) == value
        out.append(KCompositeWitness(p, n, value, _of_primes(primes), k, mode))
    return out


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def polynomial_composites(coeffs: Sequence[int], count: int) -> list[PolyCompositeRecord]:
    """Composite values of an integer polynomial f (coefficients ascending,
    coeffs[i] is the x^i coefficient).

    Finds the least k >= 0 with f(k) > 1, then f(k + j*f(k)) is a
    multiple of f(k) for every j >= 1, and a record where it is larger.
    Each j gives at most one record, so SEARCH_CAP bounds j, and a count
    past it is refused before the first record.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise DomainError("polynomial must be non-constant")
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]  # same |values|, positive leading coeff
    if count < 1:
        raise DomainError("count must be >= 1")
    refusal = f"fewer than {count} records f(k + j*f(k)) > f(k) for j <= {SEARCH_CAP}"
    if count > SEARCH_CAP:
        raise CapacityError(refusal)

    k = first(lambda k: _poly_eval(coeffs, k) > 1, 0, SEARCH_CAP,
              f"no k <= {SEARCH_CAP} with f(k) > 1")
    d = _poly_eval(coeffs, k)

    out = []
    for j in range(1, SEARCH_CAP + 1):
        idx = k + j * d
        value = _poly_eval(coeffs, idx)
        if value % d != 0:
            raise AssertionError("divisibility identity violated")
        if value > d:
            out.append(PolyCompositeRecord(tuple(coeffs), k, j, idx, value, d))
            if len(out) == count:
                return out
    raise CapacityError(refusal)


class Twin3Result(Record):
    __slots__ = _json = ("witnesses", "shortfall")


def three_composites_4n3(count: int, k_max: int) -> Twin3Result:
    """Terms 4n+3 with exactly three prime factors (with multiplicity),
    from twin-prime pairs: n = 5k^2 - 2 gives 4n+3 = 5*(2k-1)*(2k+1).

    The pairs are read off the segment sieve of 2j + 1, to the count-th.
    If fewer have k <= k_max, the partial list has the shortfall flag set.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    check_sieve("k_max", k_max, 2 * k_max + 1)
    # Index j is 2j + 1: the pair (2k - 1, 2k + 1) is the 1s at k - 1 and k.
    prog, out, window = Progression(4, 3), [], b"\x00"  # index 0: 1 is not prime
    for start, mask in _prime_segments(Progression(2, 1), 1, k_max):
        window, at = window[-1:] + mask, -1  # window[i] is index start - 1 + i
        while len(out) < count and (at := window.find(b"\x01\x01", at + 1)) >= 0:
            k = start + at
            lo, hi, n = 2 * k - 1, 2 * k + 1, 5 * k * k - 2
            value = prog.term(n)
            assert value == 5 * lo * hi
            out.append(
                KCompositeWitness(prog, n, value, _of_primes([5, lo, hi]), 3, "multiplicity")
            )
        if len(out) == count:
            break
    return Twin3Result(tuple(out), shortfall=len(out) < count)
