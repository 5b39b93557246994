import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from apcomposites import analysis, numcore
from apcomposites.analysis import (
    BoundCheck,
    _omega_histogram,
    central_binom_bound,
    chain_sweep,
    density_bound_check,
    dyadic_gap_bound,
    erdos_kac_samples,
    gaussian_mass,
    longest_prime_run,
    pi_power4_bound,
    progression_composite_densities,
    run_length_bounds,
    run_length_threshold,
    scan_need,
)
from apcomposites.errors import CapacityError, DomainError
from apcomposites.numcore import (
    PrimeTable,
    Progression,
    factorize,
    prime_count,
    prime_counts,
)
from conftest import (
    oracle_is_prime,
    oracle_omega_array,
    oracle_omega_histogram,
    oracle_prime_mask,
    oracle_runs,
    sieve_cap,
    traced_peak,
)


class TestCentralBinomBound:
    def test_n5(self):
        bc = central_binom_bound(5)
        assert dict(bc.detail)["gap"] == 1  # pi(10) - pi(5)
        assert bc.holds

    def test_n2(self):
        bc = central_binom_bound(2)
        assert dict(bc.detail)["gap"] == 1
        assert bc.holds

    def test_n1000(self):
        assert central_binom_bound(1000).holds

    def test_rejects_n1(self):
        with pytest.raises(DomainError):
            central_binom_bound(1)

    def test_log_space_matches_direct_small(self):
        # Direct integer comparison is feasible for small n.
        pi = np.cumsum(oracle_prime_mask(200))
        table = prime_counts(range(2, 200))
        for n in range(2, 100):
            gap = int(pi[2 * n] - pi[n])
            assert (n**gap < 4**n) == central_binom_bound(n, table).holds


class TestDyadicGapBound:
    def test_k4(self):
        bc = dyadic_gap_bound(4)
        assert bc.lhs == 2 and bc.rhs == pytest.approx(16 / 3)
        assert bc.holds

    def test_k2(self):
        bc = dyadic_gap_bound(2)
        assert bc.lhs == 1 and bc.rhs == 4

    def test_k20(self):
        assert dyadic_gap_bound(20).holds

    def test_rejects_k1(self):
        with pytest.raises(DomainError):
            dyadic_gap_bound(1)


@pytest.mark.parametrize("check, value, limit", [
    (central_binom_bound, 1000, 2000),
    (dyadic_gap_bound, 12, 4096),
])
def test_gap_checks_sieve_once(monkeypatch, check, value, limit):
    # Without a table, both counts of the gap come from one counting pass
    # over its two ends, limit / 2 and limit.
    passes = []

    def recording_prime_counts(xs):
        xs = list(xs)
        passes.append(set(xs))
        return prime_counts(xs)

    monkeypatch.setattr(analysis, "prime_counts", recording_prime_counts)
    check(value)
    assert passes == [{limit // 2, limit}]


@pytest.mark.parametrize("check, value", [
    (central_binom_bound, 500), (dyadic_gap_bound, 11),
    (pi_power4_bound, 5), (density_bound_check, 12345),
])
def test_checks_read_only_their_points(check, value):
    # The same result from the reference counts, from a pass over exactly
    # the points the check declares, and from no table; a pass that lacks
    # one of those points is refused.
    points = list(analysis.pi_points(check.__name__, value))
    pi = np.cumsum(oracle_prime_mask(max(points)))
    expected = check(value, PrimeTable({x: int(pi[x]) for x in points}))
    assert check(value, prime_counts(points)) == expected == check(value)
    with pytest.raises(DomainError):
        check(value, prime_counts([p + 1 for p in points]))


def test_a_table_needs_no_sieve_cap():
    # A table built under a raised cap is read once the cap is back: a
    # check given a table runs no sieve, and only one without is refused.
    x, k = 6 * 10**7, 26
    with sieve_cap(2**k):
        density_table, dyadic_table = prime_counts([x]), prime_counts([2**(k - 1), 2**k])
    assert density_bound_check(x, density_table).pi_x == 3_562_115  # sympy.primepi
    assert dyadic_gap_bound(k, dyadic_table).lhs == 3_957_809 - 2_063_689
    for refused in (lambda: density_bound_check(x), lambda: dyadic_gap_bound(k)):
        with pytest.raises(CapacityError):
            refused()
    # The domain is still checked first, and a point past the table's
    # largest is refused by its exponent, before its power is built.
    with pytest.raises(DomainError, match="requires k >= 2"):
        dyadic_gap_bound(1, dyadic_table)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"^k {10**12} reads pi past {2**k}, "):
        dyadic_gap_bound(10**12, dyadic_table)
    assert time.perf_counter() - start < 0.1


class TestChainSweep:
    @pytest.mark.parametrize("check, points", [
        (central_binom_bound, range(2, 300, 7)),
        (dyadic_gap_bound, range(2, 16)),
        (pi_power4_bound, [1, 2, 2, 5]),
        (density_bound_check, [2, 10, 100, 1000, 10**4]),
    ])
    def test_each_point_as_its_check_alone(self, monkeypatch, check, points):
        # One counting pass over the pi points of every point.
        passes = []

        def recording_prime_counts(xs):
            passes.append(1)
            return prime_counts(xs)

        expected = [check(point) for point in points]
        monkeypatch.setattr(analysis, "prime_counts", recording_prime_counts)
        assert list(chain_sweep(check.__name__, points)) == expected
        assert passes == [1]

    @pytest.mark.parametrize("points, refusal", [
        ([], (DomainError, "^points must be non-empty$")),
        # The first point's domain before the last point's need.
        (range(1, 10**9), (DomainError, "^central_binom_bound requires n >= 2$")),
        (range(2, 10**9, 3), (CapacityError, f"^n {10**9 - 2} needs a sieve to {2 * 10**9 - 4}, ")),
    ])
    def test_refused_before_the_pass(self, monkeypatch, points, refusal):
        monkeypatch.setattr(analysis, "prime_counts", None)
        with pytest.raises(refusal[0], match=refusal[1]):
            next(chain_sweep("central_binom_bound", points))


class TestPiPower4Bound:
    def test_m3(self):
        bc = pi_power4_bound(3)
        assert bc.lhs == 18
        assert bc.rhs == pytest.approx(1 + 16 + 128 / 3)
        assert bc.holds

    def test_m1(self):
        bc = pi_power4_bound(1)
        assert bc.lhs == 2 and bc.rhs == 13

    def test_m10(self):
        assert pi_power4_bound(10).holds


class TestDensityBound:
    def test_x1024(self):
        pt = density_bound_check(1024)
        assert pt.pi_x == 172
        assert float(pt.ratio) == pytest.approx(0.168, abs=1e-3)
        assert pt.bound == pytest.approx(1 / 1024 + 4 / 32 + 8 / 5)
        assert pt.holds

    def test_x_1e6(self):
        pt = density_bound_check(10**6)
        assert float(pt.ratio) == pytest.approx(0.0785, abs=1e-3)
        assert pt.bound == pytest.approx(0.807, abs=1e-3)

    def test_x2(self):
        pt = density_bound_check(2)
        assert pt.ratio == Fraction(1, 2)
        assert pt.holds

    def test_rejects_x1(self):
        with pytest.raises(DomainError):
            density_bound_check(1)

    def test_bound_decreases(self):
        bounds = [density_bound_check(10**j).bound for j in range(1, 8)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def _oracle_densities(p: Progression, points: list[int]) -> list[Fraction]:
    """The composite density at each point, by trial division of every term."""
    composite = [0]  # composite[n]: the composite |a*m + b| for m <= n
    for n in range(1, max(points) + 1):
        v = abs(p.term(n))
        composite.append(composite[-1] + (v > 1 and not oracle_is_prime(v)))
    return [Fraction(composite[x], x) for x in points]


class TestProgressionCompositeDensity:
    def test_odd_x10(self):
        assert progression_composite_densities(Progression(2, 1), [10]) == [Fraction(3, 10)]

    def test_integers_x4(self):
        assert progression_composite_densities(Progression(1, 0), [4]) == [Fraction(1, 4)]

    def test_trend_toward_one(self):
        # Convergence is 1/log x slow: at 1e6 the density sits near 0.85
        # for every small step a, so the threshold reflects that.
        for a, b in [(1, 0), (2, 1), (7, 3), (10, 1)]:
            p = Progression(a, b)
            densities = progression_composite_densities(p, [100, *(10**j for j in range(3, 7))])
            for prev, cur in zip(densities, densities[1:]):
                assert cur >= prev - Fraction(1, 100)
            assert float(densities[-1]) > 0.8

    def test_matches_enumeration(self):
        p = Progression(3, -5)
        assert progression_composite_densities(p, [500]) == _oracle_densities(p, [500])

    @pytest.mark.parametrize("segment_size", [7, 97, 1 << 18])
    def test_points_match_trial_division(self, monkeypatch, segment_size):
        # Repeated points, points on and beside segment edges, and offsets
        # whose terms pass through -1, 0 and 1.
        monkeypatch.setattr(numcore, "_SEGMENT", segment_size)
        edges = [e for k in range(1, 4) for e in range(k * segment_size - 1, k * segment_size + 2)]
        rng = random.Random(f"densities:{segment_size}")
        for _ in range(60):
            p = Progression(rng.randint(1, 12), rng.randint(-60, 60))
            points = rng.choices([*range(1, 400), *(e for e in edges if e < 400)], k=6)
            points = sorted(points + points[:2])
            assert progression_composite_densities(p, points) == _oracle_densities(p, points), (
                p, points)

    @pytest.mark.parametrize("points, refusal", [
        ([], "^points must be a non-empty, non-decreasing list$"),
        ([5, 4], "^points must be a non-empty, non-decreasing list$"),
        ([0, 10**12], "^x must be >= 1$"),
        ([-3, -1], "^x must be >= 1$"),
    ])
    def test_points_refused_before_any_work(self, monkeypatch, points, refusal):
        monkeypatch.setattr(numcore, "_segment_counts", None)
        with sieve_cap(10), pytest.raises(DomainError, match=refusal):
            progression_composite_densities(Progression(3, 1), points)

    def test_step_then_points_then_need_of_the_last(self):
        with pytest.raises(DomainError, match="requires a >= 1"):
            progression_composite_densities(Progression(-1, 1), [0, 5])
        with sieve_cap(31), pytest.raises(
                CapacityError, match="^x 10 needs a sieve to 32, the sieve cap is 31$"):
            progression_composite_densities(Progression(3, 2), [1, 2, 10])


class TestPrimeTermMask:
    """The two scans over the prime terms of a*n + b, read one sieve
    segment at a time, against the reference mask."""

    A_MAX, N_MAX = 14, 10**4

    @pytest.fixture(scope="class")
    def membership(self):
        # Covers every |a*n + b| of the cases below.
        return oracle_prime_mask(self.A_MAX * self.N_MAX + 3 * self.A_MAX)

    @staticmethod
    def check(membership, p, n_max):
        terms = np.abs(p.a * np.arange(1, n_max + 1) + p.b)
        bits = membership[terms]
        scan = longest_prime_run(p, n_max)
        assert (scan.max_length, list(scan.starts)) == oracle_runs(bits), (p, n_max)
        composite = n_max - np.count_nonzero(bits) - np.count_nonzero(terms <= 1)
        assert progression_composite_densities(p, [n_max]) == [Fraction(composite, n_max)], (
            p, n_max)

    @pytest.mark.parametrize("a", range(1, A_MAX + 1))
    def test_matches_value_sieve(self, membership, a):
        # b = 0, gcd(a, b) > 1, and b <= -a, where terms are negative or
        # pass through -1, 0 and 1, are all among these offsets.
        for b in range(-3 * a, 3 * a + 1):
            for n_max in (1, 2, 3, self.N_MAX):
                self.check(membership, Progression(a, b), n_max)

    def test_independent_of_segmentation(self, membership, segment):
        # Segment sizes that divide a (7 | 7, 7 | 14) and that do not; runs
        # that cross segment edges and that end at n_max.
        for a in (1, 2, 6, 7, 12, 14):
            for b in (-3 * a, -a - 1, -1, 0, 1, 5, a - 1):
                for n_max in (1, 2, 3, 96, 97, 98, 3000):
                    self.check(membership, Progression(a, b), n_max)

    @pytest.mark.parametrize("a, b, n_max", [(1, 0, 100), (3, -5, 30), (5, 10, 20)])
    def test_cap_is_the_largest_term(self, monkeypatch, a, b, n_max):
        # Every sieve-backed entry point is accepted with the cap at its
        # need and refused one below it, with a message naming the
        # parameter, its value, the need and the cap. The refusal comes
        # before the kernel that would do the work is reached.
        p = Progression(a, b)
        top = max(abs(p.term(1)), abs(p.term(n_max)))
        k, m = n_max.bit_length(), n_max.bit_length() // 2
        cases = [  # (call, its kernel, "param value", need)
            (lambda: longest_prime_run(p, n_max), (analysis, "_prime_segments"),
             f"n_max {n_max}", top),
            (lambda: progression_composite_densities(p, [n_max]), (numcore, "_segment_counts"),
             f"x {n_max}", top),
            (lambda: prime_count(n_max), (numcore, "_lucy"), f"x {n_max}", n_max),
            # n_max - 1 is not n_max // i, so this pass takes the segments.
            (lambda: prime_counts([n_max - 1, n_max]), (numcore, "_segment_counts"),
             f"x {n_max}", n_max),
            (lambda: prime_count(n_max, p), (numcore, "_prime_segments"),
             f"x {n_max}", n_max),
            (lambda: erdos_kac_samples(n_max), (analysis, "_omega_histogram"),
             f"x {n_max}", n_max),
            (lambda: central_binom_bound(n_max), (numcore, "_lucy"), f"n {n_max}", 2 * n_max),
            (lambda: dyadic_gap_bound(k), (numcore, "_lucy"), f"k {k}", 2**k),
            (lambda: pi_power4_bound(m), (numcore, "_lucy"), f"m {m}", 4**m),
            (lambda: density_bound_check(n_max), (numcore, "_lucy"), f"x {n_max}", n_max),
        ]
        for call, (module, kernel), given, need in cases:
            with sieve_cap(need):
                call()
            refusal = f"^{given} needs a sieve to {need}, the sieve cap is {need - 1}$"
            with sieve_cap(need - 1), monkeypatch.context() as patch:
                with pytest.raises(CapacityError, match=refusal):
                    call()
                patch.setattr(module, kernel, None)
                with pytest.raises(CapacityError, match=refusal):
                    call()
        # At the default cap, far past it: refused at once, without
        # building 2**k or starting an unbounded count.
        for call in (lambda: prime_count(10**12),
                     lambda: prime_count(10**12, Progression(4, 1)),
                     lambda: erdos_kac_samples(10**12),
                     lambda: dyadic_gap_bound(10**12)):
            start = time.perf_counter()
            with pytest.raises(CapacityError):
                call()
            assert time.perf_counter() - start < 0.1

    def test_scan_need_refusal_order(self):
        # A step below 1 first, at the first progression given that has one,
        # then n below 1, then the largest |a*m + b| over both progressions
        # and m in {1, n}: here |3*10 - 40| = 10 < |1*1 - 40| = 39.
        lo, hi = Progression(1, -40), Progression(3, -40)
        with pytest.raises(DomainError, match="^runs requires a >= 1$"):
            scan_need("runs", "n_max", 0, Progression(-1, 0), hi)
        with pytest.raises(DomainError, match="^runs requires a >= 1$"):
            scan_need("runs", "n_max", 0, lo, Progression(-2, 0))
        with pytest.raises(DomainError, match="^n_max must be >= 1$"):
            scan_need("runs", "n_max", 0, lo, hi)
        with sieve_cap(39):
            scan_need("runs", "n_max", 10, lo, hi)
        with sieve_cap(38), pytest.raises(
                CapacityError, match="^n_max 10 needs a sieve to 39, the sieve cap is 38$"):
            scan_need("runs", "n_max", 10, lo, hi)
        with sieve_cap(49), pytest.raises(CapacityError, match="needs a sieve to 50,"):
            scan_need("runs", "n_max", 30, lo, hi)  # 3*30 - 40

    @pytest.mark.parametrize("scan", [
        longest_prime_run, lambda p, n_max: progression_composite_densities(p, [n_max])],
        ids=["longest_prime_run", "progression_composite_densities"])
    def test_peak_memory(self, scan):
        # One segment of 2**18 indices (the run scan also holds its window),
        # the zeros of one stride and the base primes, whatever n_max is: a
        # byte per index would be 4 MB here.
        n_max = 4_000_000
        assert traced_peak(lambda: scan(Progression(12, 1), n_max)) <= 2 << 20

    def test_short_range_far_from_0(self):
        # Ten indices near 1e11 sieve by the 27,293 base primes to 316,227:
        # their classes and the small sieve, with no list of the +-q terms
        # (5.6 MiB with one).
        with sieve_cap(10**12):
            assert traced_peak(lambda: longest_prime_run(Progression(1, 10**11), 10)) < 4.5 * 2**20


class TestLongestPrimeRun:
    def test_odd_progression(self):
        scan = longest_prime_run(Progression(2, 1), 10**5)
        assert scan.max_length == 3
        assert [r.start_n for r in scan.max_runs] == [1]
        assert scan.best.values == (3, 5, 7)

    def test_n_plus_1(self):
        scan = longest_prime_run(Progression(1, 1), 100)
        assert scan.max_length == 2
        assert scan.best.start_n == 1  # values 2, 3

    def test_a6_bound(self):
        scan = longest_prime_run(Progression(6, 1), 10**5)
        assert scan.max_length <= 36

    def test_maximality(self):
        p = Progression(2, 1)
        scan = longest_prime_run(p, 10**4)
        for r in scan.max_runs:
            if r.start_n > 1:
                assert not oracle_is_prime(abs(p.term(r.start_n - 1)))
            if not r.truncated:
                assert not oracle_is_prime(abs(p.term(r.start_n + r.length)))

    def test_truncated_flag(self):
        # 2n+1 at n = 1, 2, 3 are all prime, so a scan to 3 ends mid-run.
        scan = longest_prime_run(Progression(2, 1), 3)
        assert scan.best.truncated

    def test_threshold(self):
        assert run_length_threshold(Progression(2, 1)) == 7
        assert run_length_threshold(Progression(1, 0)) == 4

    def test_bound_past_threshold(self):
        # Negative offsets included: for b <= -3, a*m + b passes through
        # -1, 0 and 1 after |a*m + b| first exceeds 1.
        for a in range(1, 9):
            for b in range(-40, 41):
                p = Progression(a, b)
                scan = longest_prime_run(p, 20_000)
                thresh = run_length_threshold(p)
                # Bound applies to runs starting past the construction
                # threshold; early runs may exceed it (2,3 and 3,5,7).
                if scan.max_length > a * a:
                    assert all(r.start_n <= thresh for r in scan.max_runs), (a, b)

    def test_threshold_needs_positive_step(self):
        with pytest.raises(DomainError):
            run_length_threshold(Progression(-2, 1))


class TestRunLengthBounds:
    @pytest.mark.parametrize("segment", [7, 97])
    def test_matches_longest_prime_run(self, monkeypatch, segment):
        # Runs that cross segment edges; odd a, whose terms alternate in
        # parity, with b = +-1; negative b, whose terms pass through -1, 0
        # and 1; and scans with no prime term at all (4n, 6n + 3, n_max 1).
        monkeypatch.setattr(numcore, "_SEGMENT", segment)
        rng = random.Random(f"run_length_bounds:{segment}")
        zero = 0
        for b in [*range(-12, 13), *rng.sample(range(-60, -12), 4)]:
            for n_max in (1, 2, segment, segment + 1, rng.randint(3, 20 * segment)):
                checks = list(run_length_bounds(range(1, 13), b, n_max))
                assert [c.param for c in checks] == list(range(1, 13))
                for a, check in zip(range(1, 13), checks):
                    p = Progression(a, b)
                    scan = longest_prime_run(p, n_max)
                    length, first = [w[:2] for w in analysis._run_windows(p, n_max)][-1]
                    assert (length, first) == (scan.max_length, (scan.starts or [0])[0])
                    within = (scan.max_length <= a * a
                              or scan.best.start_n <= run_length_threshold(p))
                    assert check == BoundCheck(a, scan.max_length, a * a, within), (a, b, n_max)
                    zero += not scan.max_length
        assert zero

    def test_refused_before_the_first_scan(self, monkeypatch):
        # scan_need's refusals over the range's ends: a step below 1, then
        # n_max below 1, then the largest term, here at the last step.
        monkeypatch.setattr(analysis, "_prime_segments", None)
        cases = [
            (range(5, 5), 10, DomainError, "^steps must be a non-empty range$"),
            (range(-3, 1), 10, DomainError, "^longest_prime_run requires a >= 1$"),
            (range(-2, 6), 0, DomainError, "^longest_prime_run requires a >= 1$"),
            (range(1, 6), 0, DomainError, "^n_max must be >= 1$"),
            (range(1, 6), 11, CapacityError, "^n_max 11 needs a sieve to 56, the sieve cap is 55$"),
            (range(5, 0, -1), 11, CapacityError, "needs a sieve to 56,"),
        ]
        for steps, n_max, error, refusal in cases:
            with sieve_cap(55), pytest.raises(error, match=refusal):
                next(run_length_bounds(steps, 1, n_max))


class TestErdosKac:
    def test_omega_pass_matches_single(self):
        # The test oracle's bulk omega pass, against per-n factorization.
        om = oracle_omega_array(30)
        for n in range(3, 31):
            assert om[n] == factorize(n).omega

    @pytest.mark.parametrize("x, segment", [
        *((x, segment)
          for x in (1000, *(r * r + d for r in (2, 3, 10, 64) for d in (-1, 0, 1)))
          for segment in (1, 7, 97, 2**18)),
        (30_030, 97), (600_000, 2**18), (600_001, 7919), (600_001, 2**16),
    ], indirect=["segment"])
    def test_histogram_independent_of_segmentation(self, x, segment):
        # The segment oracle at segment sizes that do and do not divide
        # the primes, and so patterns of the smallest primes of several
        # periods (2310 at 2**16, 30030 at 2**18), and x beside r**2, where
        # a prime moves between the strided primes and the one large prime
        # factor; at x = 3 = 2**2 - 1 that step must leave out n = 2. The
        # walk reads no segment and must agree at every size.
        expected = np.bincount(oracle_omega_array(x)[3:], minlength=16).tolist()
        assert oracle_omega_histogram(x) == expected
        assert _omega_histogram(x) == expected

    @pytest.mark.parametrize("r", [2, 3, 10, 31, 1000, 3163])
    def test_walk_matches_oracle_beside_squares(self, r):
        # At r**2 the prime r joins the primes whose square fits, and the
        # walk's bound m*q*q <= x moves with it.
        for x in (r * r - 1, r * r, r * r + 1):
            assert _omega_histogram(x) == oracle_omega_histogram(x), x

    def test_walk_matches_oracle_at_seeded_x(self):
        rng = np.random.default_rng(20_241)
        for x in np.exp(rng.uniform(math.log(3), math.log(1e7), 200)).astype(int).tolist():
            assert _omega_histogram(x) == oracle_omega_histogram(x), x

    def test_gaussian_mass(self):
        assert gaussian_mass(-1, 1) == pytest.approx(0.6827, abs=1e-4)
        assert gaussian_mass(-10, 10) == pytest.approx(1.0, abs=1e-6)

    def test_summary_small(self):
        summary = erdos_kac_samples(10**4)
        assert summary.sample_count == 10**4 - 2
        assert 2.0 < summary.mean_omega < 3.0

    def test_rejects_tiny_x(self):
        with pytest.raises(DomainError):
            erdos_kac_samples(2)

    def test_rejects_reversed_interval(self):
        with pytest.raises(DomainError):
            erdos_kac_samples(1000, ((-1.0, 1.0), (1.0, -1.0)))

    @staticmethod
    def _float64_reference(x, intervals):
        # The summary as computed over a float64 statistic per integer.
        om = oracle_omega_array(x)[3:].astype(np.float64)
        llx = math.log(math.log(x))
        stat = (om - llx) / math.sqrt(llx)
        fractions = [
            int(np.count_nonzero((stat >= lo) & (stat <= hi))) / (x - 2)
            for lo, hi in intervals
        ]
        return float(om.sum() / (x - 2)), fractions

    @pytest.mark.parametrize("x", [3, 100, 12_345, 10**5])
    def test_summary_matches_float64_reference(self, x):
        # Endpoints placed exactly on values (k - llx)/sqrt(llx) of the
        # statistic, and just beside them, where rounding would show.
        llx = math.log(math.log(x))
        s = [(k - llx) / math.sqrt(llx) for k in range(8)]
        intervals = [(-1.0, 1.0), (s[1], s[3]), (s[2], s[2]),
                     (math.nextafter(s[1], 9), math.nextafter(s[3], -9)),
                     (s[0], s[7]), (-5.0, s[2])]
        summary = erdos_kac_samples(x, tuple(intervals))
        mean_omega, fractions = self._float64_reference(x, intervals)
        assert summary.mean_omega == mean_omega
        assert [iv.sample_fraction for iv in summary.intervals] == fractions

    def test_peak_memory(self):
        # Lucy's lists of sqrt(x) ints, the primes up to sqrt(x) and the
        # walk's stack: about 0.5 MiB at 1e7. A segment pass, which holds
        # 2**18 bytes and the slices each translate copies, fails at 4e6.
        for x in (500_000, 4_000_000, 10_000_000):
            assert traced_peak(lambda: erdos_kac_samples(x)) <= 3 << 18, x
