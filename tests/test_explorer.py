import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from apcomposites import explorer
from apcomposites.errors import BracketError, CapacityError, DomainError
from apcomposites.explorer import (
    euler_lucky_search,
    fermat_real_root,
    prime_streak,
    rational_scan,
)
from conftest import oracle_is_prime


class TestLucky:
    def test_the_six(self):
        assert euler_lucky_search(100) == [2, 3, 5, 11, 17, 41]

    def test_no_more_below_1000(self):
        assert euler_lucky_search(1000) == [2, 3, 5, 11, 17, 41]

    def test_cmax_4(self):
        assert euler_lucky_search(4) == [2, 3]

    def test_members_reverified(self):
        for C in euler_lucky_search(100):
            for n in range(1, C):
                assert oracle_is_prime(n * n - n + C)

    def test_failures_reported(self):
        # Every C the search leaves out has a composite n^2 - n + C, n < C.
        lucky = euler_lucky_search(100)
        for C in set(range(2, 101)) - set(lucky):
            assert not all(oracle_is_prime(n * n - n + C) for n in range(1, C))

    def test_c1_excluded(self):
        assert euler_lucky_search(1) == []


class TestPrimeStreak:
    def test_euler_41(self):
        res = prime_streak(41)
        assert res.length == 40
        assert res.first_failure_value == 1681 == 41 * 41

    def test_c2(self):
        res = prime_streak(2)
        assert res.length == 1
        assert res.first_failure_value == 4

    def test_c1(self):
        res = prime_streak(1)
        assert res.length == 0
        assert res.first_failure_value == 1

    def test_scan_cap_is_a_capacity_error(self, monkeypatch):
        # n^2 + n + 41 stays prime for n < 40, past a scan cap of 10.
        monkeypatch.setattr(explorer, "SCAN_CAP", 10)
        with pytest.raises(CapacityError, match="scan cap 10$"):
            prime_streak(41)

    def test_41_is_record_below_1000(self):
        best = max(range(1, 1001), key=lambda C: prime_streak(C).length)
        assert best == 41
        assert all(
            prime_streak(C).length < 40 for C in range(1, 1001) if C != 41
        )


class TestFermatRealRoot:
    def test_456(self):
        r = fermat_real_root(4, 5, 6, (2, 3), 1e-12)
        assert 2.48 < r.s < 2.50
        assert r.residual < 1e-9
        assert r.refined_bracket[1] - r.refined_bracket[0] <= 1e-12 * 1.01
        assert r.iterations == math.ceil(math.log2(1 / 1e-12))

    def test_pythagorean_control(self):
        r = fermat_real_root(3, 4, 5, (1, 3), 1e-12)
        assert r.s == pytest.approx(2.0, abs=1e-12)
        assert r.residual == 0.0

    def test_bad_bracket(self):
        # f(0) = 1 + 1 - 1 and f(1) = 4 + 5 - 6, both positive.
        with pytest.raises(BracketError,
                           match=r"^f\(0\) = 1\.0 and f\(1\) = 3\.0 have the same sign$"):
            fermat_real_root(4, 5, 6, (0, 1), 1e-12)

    def test_bracket_signs(self):
        # f(2) > 0 and f(3) < 0 for the (4,5,6) triple.
        f = lambda t: 4**t + 5**t - 6**t
        assert f(2) > 0 > f(3)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            fermat_real_root(4, 5, 6, (2, 3), 0)

    @pytest.mark.parametrize("bracket, tol", [((1.5, 2.5), 5e-324), ((-1e308, 1e308), 1e-12)])
    def test_width_over_tol_past_float_range_is_a_capacity_error(self, bracket, tol):
        with pytest.raises(CapacityError, match="is past float range$"):
            fermat_real_root(3, 4, 5, bracket, tol)

    def test_exact_endpoint_comes_before_the_width_check(self):
        r = fermat_real_root(3, 4, 5, (2, 3), 5e-324)
        assert (r.s, r.residual, r.iterations) == (2.0, 0.0, 0)

    def test_smallest_tol_within_float_range(self):
        # 1 / 1e-300 is finite: ceil(log2(1e300)) = 997 steps.
        r = fermat_real_root(3, 4, 5, (1.5, 2.5), 1e-300)
        assert (r.s, r.iterations) == (2.0, 997)

    def test_streak_of_a_strong_pseudoprime(self):
        # psi_12 is a strong pseudoprime to the 12 prime bases up to 37.
        assert prime_streak(318665857834031151167461).length == 0


class TestRationalScan:
    def test_456_empty(self):
        root = fermat_real_root(4, 5, 6, (2, 3), 1e-12)
        assert rational_scan(root, 50, 1e-9) == []

    def test_345_finds_two(self):
        root = fermat_real_root(3, 4, 5, (1, 3), 1e-12)
        assert rational_scan(root, 1, 1e-9) == [Fraction(2, 1)]

    def test_qmax_zero_rejected(self):
        root = fermat_real_root(3, 4, 5, (1, 3), 1e-12)
        with pytest.raises(DomainError):
            rational_scan(root, 0)


TOLS = (1e-9, 1e-3, 1e-1, 10)


def _brute_rational_scan(root, q_max, tols=TOLS):
    """The hits at each tol in `tols` of the scan of every reduced p/q
    strictly inside the bracket, taken exactly, one 50-digit evaluation
    each: the reference rational_scan must agree with."""
    x, y, z = root.triple
    lo, hi = (Fraction(end) for end in root.bracket)
    hits = [[] for _ in tols]
    with mp.workdps(explorer.WORKING_DPS):
        f = explorer._fermat_f(x, y, z)
        for q in range(1, q_max + 1):
            for p in range(math.floor(lo * q) + 1, math.ceil(hi * q)):
                if math.gcd(p, q) != 1:
                    continue
                value = abs(f(mp.mpf(p) / q))
                for found, tol in zip(hits, tols):
                    if value < tol:
                        found.append(Fraction(p, q))
    return [sorted(found) for found in hits]


def _random_brackets(seed: int, count: int):
    """(x, y, z, bracket) with z <= 30 and a sign change of
    x^t + y^t - z^t inside the bracket, z above or below both x and y."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        z = rng.randint(2, 30)
        x, y = rng.randint(1, 30), rng.randint(1, 30)
        if min(x, y) <= z <= max(x, y):
            continue  # f > 0 everywhere: no root
        g = lambda t: (x / z) ** t + (y / z) ** t - 1
        lo, hi = -20.0, 20.0
        if g(lo) * g(hi) >= 0:
            continue
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) * g(lo) > 0 else (lo, mid)
        out.append((x, y, z, (round(lo - rng.uniform(0.05, 0.95), 3),
                              round(lo + rng.uniform(0.05, 0.95), 3))))
    return out


def _roots_at_bracket_ends(seed: int, count: int):
    """(x, y, z, bracket, s/m): f has the rational root s/m, m <= 9, with one
    bracket end at float(s/m) or a float next to it, and the other end on
    the root's side of it, so the bracket holds the root."""
    rng = random.Random(seed)
    # a^s + b^s = c^s, so (a^m, b^m, c^m) has its root at t = s/m.
    solutions = [((1, 1, 2), 1), ((1, 2, 3), 1), ((3, 4, 5), 2),
                 ((2, 2, 1), -1), ((3, 6, 2), -1), ((20, 15, 12), -2)]
    out = []
    for _ in range(count):
        (a, b, c), s = rng.choice(solutions)
        m = rng.randint(1, 9)
        root = Fraction(s, m)
        end = rng.choice([math.nextafter(float(root), -math.inf), float(root),
                          math.nextafter(float(root), math.inf)])
        side = (root > end) - (root < end) or rng.choice((-1, 1))
        other = end + side * rng.uniform(0.05, 1)
        out.append((a**m, b**m, c**m, (min(end, other), max(end, other)), root))
    return out


class TestRationalScanAgainstBruteForce:
    @pytest.mark.parametrize("triple, bracket", [
        ((3, 4, 5), (1.0, 3.0)),
        # The root t = 2 at the lower and at the upper bracket end.
        ((3, 4, 5), (2.0, 3.0)),
        ((3, 4, 5), (1.0, 2.0)),
        ((5, 12, 13), (1.3, 2.3)),
        ((8, 15, 17), (1.5, 2.5)),
        ((1, 1, 2), (0.5, 1.5)),
    ])
    def test_rational_root_triples(self, triple, bracket):
        root = fermat_real_root(*triple, bracket)
        assert [rational_scan(root, 60, tol) for tol in TOLS] == _brute_rational_scan(root, 60)

    @pytest.mark.parametrize("x, y, z, bracket", _random_brackets(12, 40))
    def test_random_triples(self, x, y, z, bracket):
        # tol 1e-1 and 10 exceed |f| on much of a bracket, so the window
        # grows over most or all of it.
        root = fermat_real_root(x, y, z, bracket)
        assert [rational_scan(root, 20, tol) for tol in TOLS] == _brute_rational_scan(root, 20)

    @pytest.mark.parametrize("triple, bracket, q_max, hit", [
        ((1, 1, 8), (0.3333333333333333, 1.0), 10, Fraction(1, 3)),
        ((1, 1, 1024), (0.05, 0.1), 20, Fraction(1, 10)),
        ((27, 64, 125), (0.6666666666666666, 1.0), 5, Fraction(2, 3)),
    ])
    def test_root_just_inside_a_float_end(self, triple, bracket, q_max, hit):
        # f(hit) = 0, and hit is strictly inside the bracket, though the
        # float end times hit's q rounds onto hit's p.
        root = fermat_real_root(*triple, bracket)
        assert rational_scan(root, q_max) == [hit]

    @pytest.mark.parametrize("x, y, z, bracket, exact", _roots_at_bracket_ends(23, 40))
    def test_roots_at_float_bracket_ends(self, x, y, z, bracket, exact):
        root = fermat_real_root(x, y, z, bracket)
        hits = [rational_scan(root, 12, tol) for tol in TOLS]
        assert hits == _brute_rational_scan(root, 12)
        # The root is a hit exactly when it is strictly inside the bracket.
        lo, hi = map(Fraction, bracket)
        assert (exact in hits[0]) == (lo < exact < hi)

    def test_window_around_a_root_at_the_bracket_end(self):
        # f(2) = 0 at the lower end: the window stops where |f| >= 2*tol
        # beyond it, and does not grow to the whole bracket.
        root = fermat_real_root(3, 4, 5, (2.0, 3.0))
        with mp.workdps(explorer.WORKING_DPS):
            wl, wr = explorer._scan_window(explorer._fermat_f(3, 4, 5), root, 1e-9, 10)
        assert wl == 2 and wr - wl < 1e-6

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Record every evaluation of f that rational_scan makes."""
        calls = []
        real = explorer._fermat_f

        def spy(*triple):
            f = real(*triple)
            return lambda t: calls.append(t) or f(t)

        monkeypatch.setattr(explorer, "_fermat_f", spy)
        return calls

    def test_evaluations_are_linear_in_q_max(self, monkeypatch):
        root = fermat_real_root(5, 12, 13, (1.3, 2.3))
        calls = self._spy(monkeypatch)
        assert rational_scan(root, 10**4) == [Fraction(2)]
        # The whole bracket holds ~3e7 reduced p/q with q <= 1e4.
        assert len(calls) <= 10**4

    @pytest.mark.parametrize("tol", [0.0, -1e-9, -math.inf, math.nan])
    def test_tol_not_positive_is_empty(self, monkeypatch, tol):
        root = fermat_real_root(3, 4, 5, (1, 3), 1e-12)
        calls = self._spy(monkeypatch)
        assert rational_scan(root, 10**9, tol) == []
        assert calls == []

    def test_q_max_past_the_cap_is_refused_before_the_scan(self, monkeypatch):
        root = fermat_real_root(5, 12, 13, (1.3, 2.3))
        monkeypatch.setattr(explorer, "SCAN_CAP", 10)
        assert rational_scan(root, 10) == [Fraction(2)]
        calls = self._spy(monkeypatch)
        with pytest.raises(CapacityError, match="q_max 11 exceeds the scan cap 10$"):
            rational_scan(root, 11)
        assert calls == []

    @pytest.mark.parametrize("bracket, q_max", [((-1e308, 2.0), 10), ((-100.0, 2.5), 10**5)])
    def test_window_with_room_past_the_cap_is_refused_as_it_grows(self, bracket, q_max):
        # The root 2 is the upper end, and |f| < tol far to its left, so the
        # window would grow to the whole bracket: it is refused once it has
        # room for more than SCAN_CAP candidates, before any is evaluated.
        start = time.perf_counter()
        root = fermat_real_root(3, 4, 5, bracket)
        with pytest.raises(CapacityError, match=f"^q_max {q_max} on a window over .* wide "
                                                "passes the scan cap of 1000000 candidates$"):
            rational_scan(root, q_max)
        assert time.perf_counter() - start < 2.0

    def test_whole_bracket_window_within_the_cap_is_scanned(self):
        # The window is [-100, 2.5], with room for 102.5 * 55 candidates:
        # every p/q far enough left of the root is a hit.
        root = fermat_real_root(3, 4, 5, (-100.0, 2.5))
        assert len(rational_scan(root, 10)) == 2596
