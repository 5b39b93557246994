import math
from fractions import Fraction

import pytest

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

    def test_scan_cap_is_a_capacity_error(self):
        # n^2 + n + 41 stays prime for n < 40, past a scan cap of 10.
        with pytest.raises(CapacityError, match="scan cap 10"):
            prime_streak(41, scan_cap=10)

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
