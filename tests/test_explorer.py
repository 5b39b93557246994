import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from apcomposites import explorer
from apcomposites.errors import BracketError, CapacityError, DomainError
from apcomposites.explorer import (
    euler_lucky_search,
    fermat_real_root,
    lucky_check,
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
        for C in range(2, 101):
            res = lucky_check(C)
            if not res.is_lucky:
                n = res.first_failure
                assert not oracle_is_prime(n * n - n + C)

    def test_c1_excluded(self):
        assert not lucky_check(1).is_lucky


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
        monkeypatch.setattr(explorer, "STREAK_SCAN_CAP", 10)
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
    """The hits at each tol in `tols` of the scan of every reduced p/q in
    the bracket, one 50-digit evaluation each: the reference
    rational_scan must agree with."""
    x, y, z = root.triple
    lo, hi = root.bracket
    hits = [[] for _ in tols]
    with mp.workdps(explorer.WORKING_DPS):
        f = explorer._fermat_f(x, y, z)
        for q in range(1, q_max + 1):
            for p in range(math.floor(lo * q) + 1, math.ceil(hi * q)):
                if math.gcd(p, q) != 1:
                    continue
                t = mp.mpf(p) / q
                if lo < t < hi:
                    value = abs(f(t))
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


class TestRationalScanAgainstBruteForce:
    @pytest.mark.parametrize("triple, bracket", [
        ((3, 4, 5), (1.0, 3.0)),
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
