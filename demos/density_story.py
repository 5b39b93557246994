#!/usr/bin/env python3
"""The zero-density story: from the central binomial coefficient to
pi(x)/x -> 0, plus what that means inside a progression.

Prints each link of the inequality chain over a sweep, then the
composite-density trend, the longest prime runs, the distinct-factor
statistic, and the two prime-producing-polynomial curiosities.
"""

from apcomposites import (
    Progression,
    central_binom_bound,
    density_bound_check,
    dyadic_gap_bound,
    erdos_kac_samples,
    euler_lucky_search,
    fermat_real_root,
    longest_prime_run,
    pi_power4_bound,
    prime_counts,
    prime_streak,
    progression_composite_densities,
    rational_scan,
)
from apcomposites.analysis import pi_points

BINOM_N, DYADIC_K, POW4_M = (5, 100, 10**4), (2, 10, 22), (1, 5, 11)
# One counting pass over every pi value the four checks below read.
checks = {"central_binom_bound": BINOM_N, "dyadic_gap_bound": DYADIC_K,
          "pi_power4_bound": POW4_M, "density_bound_check": [10**j for j in range(1, 8)]}
table = prime_counts(x for check, values in checks.items()
                     for v in values for x in pi_points(check, v))

print("Central binomial link: n^(pi(2n)-pi(n)) < 4^n  (log-space)")
for n in BINOM_N:
    bc = central_binom_bound(n, table)
    print(f"  n={n:6d}: {bc.lhs:12.2f} < {bc.rhs:12.2f}  holds={bc.holds}")

print("\nDyadic gaps: pi(2^k) - pi(2^(k-1)) < 2^k/(k-1)")
for k in DYADIC_K:
    bc = dyadic_gap_bound(k, table)
    print(f"  k={k:2d}: gap={int(bc.lhs):6d} < {bc.rhs:10.1f}")

print("\nTelescoped: pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m")
for m in POW4_M:
    bc = pi_power4_bound(m, table)
    print(f"  m={m:2d}: pi(4^m)={int(bc.lhs):7d} < {bc.rhs:12.1f}")

print("\nFinal bound: pi(x)/x < 1/x + 4/sqrt(x) + 8/log4(x) -> 0")
for j in range(1, 8):
    pt = density_bound_check(10**j, table)
    print(f"  x=1e{j}: ratio={float(pt.ratio):.6f}  bound={pt.bound:.4f}")

print("\nComposite density of 2n+1 creeps toward 1 (1/log x slow):")
# One sieve pass for all five points.
densities = progression_composite_densities(Progression(2, 1), [10**j for j in range(2, 7)])
for j, d in zip(range(2, 7), densities):
    print(f"  x=1e{j}: {float(d):.5f}")

print("\nLongest prime runs (bound a^2; 3,5,7 is the one length-3 run in 2n+1):")
for a, b in [(1, 1), (2, 1), (4, 3), (6, 1)]:
    scan = longest_prime_run(Progression(a, b), 10**5)
    print(f"  {a}n+{b}: max run {scan.max_length} (a^2 = {a * a}), "
          f"first at n={scan.best.start_n}, values {scan.best.values[:5]}")

print("\nDistinct prime factors: (omega(n) - loglog x)/sqrt(loglog x) vs Gaussian")
s = erdos_kac_samples(10**6, intervals=((-1, 1), (-2, 2)))
print(f"  mean omega = {s.mean_omega:.3f} over n <= 1e6")
for iv in s.intervals:
    print(f"  [{iv.lo:+.0f},{iv.hi:+.0f}]: sample {iv.sample_fraction:.4f}"
          f"  vs Gaussian {iv.gaussian_mass:.4f}")

print("\nPrime-producing quadratics:")
print(f"  lucky constants up to 1000: {euler_lucky_search(1000)}")
st = prime_streak(41)
print(f"  n^2+n+41 is prime for 0 <= n < {st.length}; "
      f"fails at n={st.first_failure_n} with {st.first_failure_value} = 41^2")

print("\nReal-exponent Fermat equation 4^s + 5^s = 6^s:")
root = fermat_real_root(4, 5, 6, (2, 3), 1e-12)
print(f"  s = {root.s:.12f}, residual {root.residual:.2e}")
print(f"  rationals p/q (q <= 50) in (2,3) solving it: "
      f"{rational_scan(root, 50, 1e-9) or 'none'}")
