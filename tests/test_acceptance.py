"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import pytest

from apcomposites.analysis import (
    central_binom_bound,
    density_bound_check,
    dyadic_gap_bound,
    erdos_kac_samples,
    longest_prime_run,
    pi_power4_bound,
    pi_points,
    run_length_threshold,
)
from apcomposites.constructions import (
    factorial_consecutive,
    k_composite_witnesses,
    three_composites_4n3,
    witness_power,
    witness_unit_b,
)
from apcomposites.explorer import (
    euler_lucky_search,
    fermat_real_root,
    prime_streak,
    rational_scan,
)
from apcomposites.numcore import Progression, factorize, is_prime, prime_counts
from conftest import oracle_factorize, oracle_is_prime, run_cli


def report(criterion: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok


DENSITY_X = [10**j for j in range(1, 8)]
BINOM_N, DYADIC_K, POW4_M = range(2, 10**4 + 1), range(2, 23), range(1, 12)


@pytest.fixture(scope="module")
def big_table():
    # One counting pass over every pi value criteria 1 and 2 read.
    checks = {"density_bound_check": DENSITY_X, "central_binom_bound": BINOM_N,
              "dyadic_gap_bound": DYADIC_K, "pi_power4_bound": POW4_M}
    return prime_counts(x for check, values in checks.items()
                        for v in values for x in pi_points(check, v))


def test_criterion_1_density_bound_sweep(big_table):
    t0 = time.monotonic()
    failures = [
        x
        for x in DENSITY_X
        if not density_bound_check(x, big_table).holds
    ]
    elapsed = time.monotonic() - t0
    report(
        "1. pi(x)/x < 1/x + 4/sqrt(x) + 8/log4(x) for x = 10..1e7, "
        f"0 failures, {elapsed:.1f}s",
        failures == [] and elapsed < 60,
    )


def test_criterion_2_inequality_chain(big_table):
    bad_binom = [n for n in BINOM_N if not central_binom_bound(n, big_table).holds]
    bad_dyadic = [k for k in DYADIC_K if not dyadic_gap_bound(k, big_table).holds]
    bad_pow4 = [m for m in POW4_M if not pi_power4_bound(m, big_table).holds]
    report(
        "2. binom n in [2,1e4], dyadic k in [2,22], pow4 m in [1,11]: "
        "zero failures",
        not bad_binom and not bad_dyadic and not bad_pow4,
    )


def test_criterion_3_witness_identities():
    ok = True
    from apcomposites.errors import DegenerateInputError

    for a in range(1, 51):
        for b in (-1, 1):
            for m in range(2, 101):
                # identity holds always; degenerate |a*m+b| <= 1 (only
                # a=1, b=-1, m=2 in range) yields no composite witness
                n = a * (a * m + b) + m
                ok &= a * n + b == (a * a + 1) * (a * m + b)
                try:
                    w = witness_unit_b(Progression(a, b), m)
                except DegenerateInputError:
                    ok &= abs(a * m + b) <= 1
                    continue
                ok &= w.value == (a * a + 1) * (a * m + b)
                ok &= w.verify()
    for a in range(1, 21):
        for k in range(1, 6):
            for sign in (-1, 1):
                w = witness_power(a, sign, k)
                ok &= w.value % (3 * a + sign) == 0
                ok &= w.verify()
    for m in range(3, 21):
        fact = math.factorial(m)
        for j, w in zip(range(2, m + 1), factorial_consecutive(m)):
            ok &= (fact + j) % j == 0
            ok &= w.verify()
    report("3. witness_unit_b / witness_power / factorial identities "
           "exhaustively verified", ok)


def test_criterion_4_euler_lucky():
    lucky = euler_lucky_search(1000)
    streak = prime_streak(41)
    report(
        "4. lucky(1000) = {2,3,5,11,17,41}; streak(41) = 40 failing at 1681",
        lucky == [2, 3, 5, 11, 17, 41]
        and streak.length == 40
        and streak.first_failure_value == 1681 == 41**2,
    )


def test_criterion_5_prime_runs():
    scan = longest_prime_run(Progression(2, 1), 10**6)
    ok = scan.max_length == 3 and [r.start_n for r in scan.max_runs] == [1]
    # every run starting at n >= 2 has length <= 2
    thresh_ok = True
    for a in range(1, 7):
        for b in range(a):
            if math.gcd(a, b) != 1:
                continue
            p = Progression(a, b)
            s = longest_prime_run(p, 10**5)
            if s.best is None:
                continue
            # Bound applies past the constructive threshold; the early
            # exceptional runs (2,3 for a=1; 3,5,7 for 2n+1) start below it.
            if s.best.start_n > run_length_threshold(p):
                thresh_ok &= s.max_length <= a * a
            else:
                later = [
                    r for r in s.max_runs
                    if r.start_n > run_length_threshold(p)
                ]
                thresh_ok &= all(r.length <= a * a for r in later)
    report(
        "5. unique length-3 run of 2n+1 at n=1 (n <= 1e6); runs past the "
        "construction threshold bounded by a^2 for a in [1,6]",
        ok and thresh_ok,
    )


def test_criterion_6_k_composites():
    ok = True
    for a, b in [(4, 1), (2, 1), (3, 2), (5, 3)]:
        for k in (1, 2, 3):
            ws = k_composite_witnesses(Progression(a, b), k, 10, "distinct")
            ok &= len(ws) >= 10
            for w in ws:
                f = factorize(w.value)
                ok &= f.omega == k
                ok &= w.progression.term(w.n) == w.value
    report("6. >= 10 distinct-mode witnesses for each k in {1,2,3} over "
           "(4,1),(2,1),(3,2),(5,3), omega re-verified", ok)


def test_criterion_7_twin_prime_3_composites():
    res = three_composites_4n3(10**6, 10**4)  # take all pairs below k_max
    ws = res.witnesses
    values = {w.value for w in ws}
    ok = len(ws) >= 100
    ok &= all(w.value % 4 == 3 and factorize(w.value).big_omega == 3 for w in ws)
    ok &= 75 in values and 175 in values
    report(f"7. {len(ws)} twin-prime 3-composites 4n+3 (k <= 1e4), "
           "all with Omega = 3, including 75 and 175", ok)


def test_criterion_8_erdos_kac():
    t0 = time.monotonic()
    summary = erdos_kac_samples(10**6, intervals=((-1.0, 1.0),))
    elapsed = time.monotonic() - t0
    iv = summary.intervals[0]
    mean_ok = 2.6 <= summary.mean_omega <= 3.1
    frac_ok = abs(iv.sample_fraction - 0.6827) <= 0.20
    report(
        f"8. mean omega = {summary.mean_omega:.3f} in [2.6, 3.1]; "
        f"fraction in [-1,1] = {iv.sample_fraction:.4f} within 0.20 of "
        f"0.6827 ({elapsed:.1f}s)",
        mean_ok and frac_ok and elapsed < 120,
    )


def test_criterion_9_real_exponent_root():
    f = lambda t: 4**t + 5**t - 6**t
    root = fermat_real_root(4, 5, 6, (2, 3), 1e-12)
    control = fermat_real_root(3, 4, 5, (1, 3), 1e-12)
    report(
        f"9. f(2) > 0 > f(3); s = {root.s:.12f}, residual "
        f"{root.residual:.2e} < 1e-9; rational scan q <= 50 empty; "
        "control (3,4,5) gives s = 2",
        f(2) > 0 > f(3)
        and root.residual < 1e-9
        and rational_scan(root, 50, 1e-9) == []
        and abs(control.s - 2.0) <= 1e-12,
    )


def test_criterion_10_oracle_equivalence_and_golden():
    ok = all(is_prime(n) == oracle_is_prime(n) for n in range(-1, 10**5 + 1))
    for n in range(2, 10**5 + 1):
        f = factorize(n)
        if dict(f.factors) != oracle_factorize(n) or not f.verify():
            ok = False
            break
    for args in (
        ["witness", "unit", "--a", "2", "--b", "1", "--m", "3"],
        ["lucky", "--max", "100"],
        ["sweep", "dyadic", "--k", "2..18"],
        ["kcomposite", "--a", "5", "--b", "3", "--k", "3", "--count", "5"],
    ):
        first = run_cli(args)
        second = run_cli(args)
        ok &= first.out == second.out and first.code == 0
        ok &= all(json.loads(line) for line in first.out.splitlines())
    report("10. is_prime/factorize match trial division for n <= 1e5; "
           "CLI output byte-identical across runs", ok)
