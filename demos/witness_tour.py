#!/usr/bin/env python3
"""Tour of every explicit composite construction, with verified proofs.

Each section prints the witnesses a construction produces and re-checks
the defining identity by direct arithmetic.
"""

from apcomposites import (
    Progression,
    consecutive_in_progression,
    factorial_consecutive,
    k_composite_witnesses,
    polynomial_composites,
    three_composites_4n3,
    witness_multiple_of_b,
    witness_power,
    witness_unit_b,
)


def show(title):
    print(f"\n=== {title} ===")


show("Offset with |b| > 1: terms at n = b*m are multiples of b")
for m in (1, 2, 3):
    w = witness_multiple_of_b(Progression(3, 4), m)
    print(f"  n={w.n:3d}  value={w.value:4d}  proof={w.proof}")

show("Offset b = ±1: a*(a*(a*m+b)+m) + b = (a^2+1)(a*m+b)")
for a, b, m in [(2, 1, 3), (1, 1, 2), (2, -1, 2), (5, -1, 4)]:
    w = witness_unit_b(Progression(a, b), m)
    print(f"  a={a} b={b:+d} m={m}: n={w.n}  value={w.value}"
          f"  = ({a * a + 1})*({a * m + b})")

show("Power construction: (3a)^(2k+1) ± 1")
for a, sign, k in [(1, -1, 1), (1, 1, 1), (2, -1, 1), (2, -1, 2)]:
    w = witness_power(a, sign, k)
    print(f"  a={a} sign={sign:+d} k={k}: value={w.value}"
          f"  divisible by {3 * a + sign}")

show("Factorial blocks: m!+2 .. m!+m are all composite")
for m in (3, 4, 5, 6):
    ws = factorial_consecutive(m)
    print(f"  m={m}: {[w.value for w in ws]}")

show("Consecutive composites inside a progression")
for a, b, N in [(1, 0, 3), (2, 1, 2), (3, 2, 4)]:
    res = consecutive_in_progression(Progression(a, b), N)
    vals = [w.value for w in res.witnesses]
    print(f"  {a}n+{b}, N={N}: start n0={res.start_n}, values {vals}"
          f"  (factorial construction works from m={res.factorial_m_bound})")

show("k-composites by the (s*a^2+1)(a*m+b) identity, distinct primes")
for k in (1, 2, 3):
    ws = k_composite_witnesses(Progression(4, 1), k, 3)
    print(f"  k={k}: " + ", ".join(
        f"n={w.n} value={w.value}={'*'.join(f'{p}^{e}' if e > 1 else str(p) for p, e in w.proof.factors)}"
        for w in ws))

show("Composite values of polynomials: f(k) divides f(k + j*f(k))")
for coeffs, label in [([1, 0, 1], "x^2+1"), ([41, 1, 1], "x^2+x+41")]:
    recs = polynomial_composites(coeffs, 3)
    for r in recs:
        print(f"  {label}: f({r.index}) = {r.value}, multiple of f({r.k}) = {r.divisor}")

show("3-composites in 4n+3 from twin primes: 5(2k-1)(2k+1)")
res = three_composites_4n3(6, 1000)
for w in res.witnesses:
    print(f"  n={w.n:4d}  4n+3 = {w.value} = {dict(w.proof.factors)}")
