import bisect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcomposites import numcore
from apcomposites.errors import DomainError
from apcomposites.numcore import (
    Factorization,
    PrimeCounts,
    Progression,
    factorize,
    is_prime,
    prime_count,
    prime_count_progression,
    prime_counts,
    _prime_segments,
    _small_primes,
    sieve,
)
from conftest import oracle_factorize, oracle_is_prime, traced_peak


class TestProgression:
    def test_term(self):
        assert Progression(4, 3).term(2) == 11
        assert Progression(-3, 7).term(5) == -8

    def test_zero_step_rejected(self):
        with pytest.raises(DomainError):
            Progression(0, 1)

    def test_residue_reduced(self):
        assert Progression(4, -1).residue == 3
        assert Progression(-4, 7).residue == 3


class TestSieve:
    def test_small(self):
        assert list(np.flatnonzero(sieve(10).membership)) == [2, 3, 5, 7]

    def test_smallest(self):
        assert list(np.flatnonzero(sieve(2).membership)) == [2]

    def test_count_100(self):
        assert sieve(100).count(100) == 25

    def test_limit_below_two_rejected(self):
        with pytest.raises(DomainError):
            sieve(1)

    def test_independent_of_segmentation(self):
        full = sieve(10_000, segment_size=1 << 20)
        tiny = sieve(10_000, segment_size=97)
        assert np.array_equal(full.membership, tiny.membership)

    def test_matches_trial_division(self):
        table = sieve(2_000)
        for n in range(2, 2_001):
            assert table.membership[n] == oracle_is_prime(n)

    def test_count_cache_consistent(self):
        table = sieve(300_000)
        for x in (2, 65535, 65536, 65537, 131072, 299999, 300000):
            assert table.count(x) == int(np.count_nonzero(table.membership[: x + 1]))

    @pytest.mark.parametrize("limit", [65535, 65536, 131071])
    def test_count_at_block_edges(self, limit):
        # Whole blocks of 65536 entries are summed once; the rest is
        # counted per call. Check every x next to a block edge.
        table = sieve(limit)
        block = 1 << 16
        edges = {e + d for e in range(0, limit + 2, block) for d in (-2, -1, 0, 1)}
        for x in sorted(edges | {limit - 1, limit}):
            if 0 <= x <= limit:
                assert table.count(x) == int(np.count_nonzero(table.membership[: x + 1]))


class TestSmallPrimes:
    @pytest.fixture(scope="class")
    def oracle_primes(self):
        return [n for n in range(65538) if oracle_is_prime(n)]

    def test_every_limit_to_400(self, oracle_primes):
        for limit in range(401):
            expected = oracle_primes[: bisect.bisect_right(oracle_primes, limit)]
            assert _small_primes(limit) == expected

    def test_prime_squares_and_word_edge(self, oracle_primes):
        squares = [p * p for p in oracle_primes if p * p <= 65537]
        for limit in squares + [65535, 65536, 65537]:
            expected = oracle_primes[: bisect.bisect_right(oracle_primes, limit)]
            assert _small_primes(limit) == expected


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(91)  # 7 * 13

    def test_nonpositive(self):
        assert not is_prime(0)
        assert not is_prime(-7)

    @given(st.integers(min_value=-100, max_value=50_000))
    def test_agrees_with_oracle(self, n):
        assert is_prime(n) == oracle_is_prime(n)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(7).factors == ((7, 1),)
        assert factorize(1681).factors == ((41, 2),)

    def test_rejects_below_two(self):
        for n in (1, 0, -6):
            with pytest.raises(DomainError):
                factorize(n)

    @given(st.integers(min_value=2, max_value=200_000))
    @settings(max_examples=300)
    def test_reconstructs_and_verifies(self, n):
        f = factorize(n)
        assert f.verify()
        assert dict(f.factors) == oracle_factorize(n)

    def test_trial_table_grows(self, monkeypatch):
        # From an empty table: the first n needs primes just past 1 << 16,
        # the second needs them up to ~1e6.
        monkeypatch.setattr(numcore, "_trial_primes", [])
        monkeypatch.setattr(numcore, "_trial_limit", 0)
        for n in (65537 * 65539, 999_983 * 1_000_003):
            f = factorize(n)
            assert dict(f.factors) == oracle_factorize(n)
        assert numcore._trial_limit > 1 << 16

    def test_derived_counts(self):
        f = factorize(2**5 * 3 * 49)
        assert f.omega == 3
        assert f.big_omega == 8
        assert f.gpf == 7

    def test_verify_catches_bad_product(self):
        assert not Factorization(12, ((2, 1), (3, 1))).verify()
        assert not Factorization(12, ((3, 1), (2, 2))).verify()  # not ascending


class TestPrimeCount:
    def test_examples(self):
        assert prime_count(10) == 4
        assert prime_count(1) == 0
        assert prime_count(100) == 25
        assert prime_count(1000) == 168

    def test_monotone(self):
        counts = [prime_count(x) for x in range(1, 500)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            prime_count(0)

    def test_table_too_small_rejected(self):
        table = sieve(100)
        assert prime_count(100, table) == 25
        with pytest.raises(DomainError):
            prime_count(101, table)

    def test_powers_of_ten(self):
        # OEIS A006880, typed in: independent of every sieve here.
        expected = [4, 25, 168, 1229, 9592, 78498, 664579]
        assert [prime_count(10**k) for k in range(1, 8)] == expected
        counts = prime_counts(10**k for k in range(1, 8))
        assert [counts.count(10**k) for k in range(1, 8)] == expected

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        segment = 1 << 18
        # Index n of 2n + 1 starts segment k at n = k * segment.
        edges = [2 * k * segment + 1 + d for k in range(1, 4) for d in (-2, -1, 0, 1, 2)]
        points = [rng.randint(1, 2_000_000) for _ in range(200)] + edges
        counts = prime_counts(points)
        for x in points:
            assert counts.count(x) == int(sympy.primepi(x)), x
        for x in edges:
            assert prime_count(x) == int(sympy.primepi(x)), x

    def test_peak_memory_is_the_sieve(self):
        # One segment of 2**18 indices, the zeros of one stride and the base
        # primes, whatever x is: no [0, x] mask.
        for x in (2_000_000, 20_000_000):
            assert traced_peak(lambda: prime_count(x)) <= 1 << 20, x
            assert traced_peak(
                lambda: prime_count_progression(Progression(4, 3), x)
            ) <= 1 << 20, x


class TestPrimeCounts:
    def test_unsorted_points_with_repeats(self):
        points = [1000, 10, 2, 1000, 3, 100, 10, 4]
        counts = prime_counts(points)
        assert [counts.count(x) for x in points] == [168, 4, 1, 168, 2, 25, 4, 2]
        assert counts.limit == 1000

    def test_points_below_two(self):
        counts = prime_counts([1, 0, -5, 2])
        assert [counts.count(x) for x in (-5, 0, 1, 2)] == [0, 0, 0, 1]
        assert prime_counts([1]).count(1) == 0

    def test_unrecorded_point_rejected(self):
        counts = prime_counts([10, 100])
        assert isinstance(counts, PrimeCounts)
        for x in (11, 99, 101):
            with pytest.raises(DomainError, match=f"pi\\({x}\\)"):
                counts.count(x)

    def test_no_points_rejected(self):
        with pytest.raises(DomainError):
            prime_counts([])

    def test_matches_table(self):
        table = sieve(20_000)
        points = list(range(0, 20_001, 37)) + [20_000]
        counts = prime_counts(points)
        for x in points:
            assert counts.count(x) == table.count(x)


class TestPrimeSegments:
    """The index-space sieve under every count: masks over the n of a*n + b."""

    @pytest.mark.parametrize("a, b", [(1, 0), (2, 1), (3, -20), (6, 1), (7, 14), (12, -1)])
    @pytest.mark.parametrize("lo, hi", [(0, 500), (7, 300), (5, 5), (0, 0)])
    def test_matches_trial_division(self, a, b, lo, hi):
        p = Progression(a, b)
        expected = [int(oracle_is_prime(abs(p.term(n)))) for n in range(lo, hi + 1)]
        for segment in (1, 7, 97, 1 << 18):
            segments = list(_prime_segments(p, lo, hi, segment))
            assert [start for start, _ in segments] == list(range(lo, hi + 1, segment))
            assert [bit for _, mask in segments for bit in mask] == expected, segment

    def test_empty_range(self):
        assert list(_prime_segments(Progression(2, 1), 5, 4)) == []

    @pytest.mark.parametrize("segment", [1, 7, 97, 1 << 18])
    def test_counts_independent_of_segmentation(self, segment):
        points = [2, 3, 97, 98, 4999, 5000]
        counts = prime_counts(points, _segment=segment)
        assert [counts.count(x) for x in points] == [1, 2, 25, 25, 669, 669]
        # Segment sizes that divide a (7 | 7, 7 | 14, 97 | 97) and that do not.
        for a in (1, 6, 7, 14, 97):
            for b in (0, 1, 5, a - 1):
                p = Progression(a, b)
                expected = sum(1 for q in range(5001) if oracle_is_prime(q)
                               and q % a == b % a)
                assert prime_count_progression(p, 5000, _segment=segment) == expected, p


class TestPrimeCountProgression:
    def test_examples(self):
        assert prime_count_progression(Progression(4, 3), 20) == 4  # 3,7,11,19
        assert prime_count_progression(Progression(2, 0), 100) == 1  # just 2
        assert prime_count_progression(Progression(1, 0), 100) == 25

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 12])
    def test_residues_partition_pi(self, a):
        x = 3000
        total = sum(
            prime_count_progression(Progression(a, b), x) for b in range(a)
        )
        assert total == prime_count(x)

    def test_negative_b_reduced(self):
        assert prime_count_progression(
            Progression(4, -1), 20
        ) == prime_count_progression(Progression(4, 3), 20)

    def test_matches_residue_filter(self):
        # Unreduced and negative offsets, and negative steps.
        x = 5_000
        primes = np.flatnonzero(sieve(x).membership)
        for a in [s * m for m in range(1, 31) for s in (1, -1)]:
            for b in (-2 * a - 1, -1, 0, 3, abs(a) + 5, 7 * abs(a) - 2):
                p = Progression(a, b)
                expected = int(np.count_nonzero(primes % abs(a) == p.residue))
                assert prime_count_progression(p, x) == expected

    def test_every_class_start(self, oracle_primes_1000):
        # b in -2a..2a covers gcd(a, b) > 1 and b = 0 or 1 mod a: the classes
        # whose first term is a prime q, 0 or 1. x below, at and past b.
        for a in [s * m for m in range(1, 31) for s in (1, -1)]:
            for b in range(-2 * abs(a), 2 * abs(a) + 1):
                p = Progression(a, b)
                for x in (1, 2, abs(b) + 1, 1000):
                    expected = sum(1 for q in oracle_primes_1000
                                   if q <= x and q % abs(a) == b % abs(a))
                    assert prime_count_progression(p, x) == expected, (a, b, x)
