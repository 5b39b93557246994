import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcomposites.errors import DomainError
from apcomposites.numcore import (
    Factorization,
    Progression,
    factorize,
    is_prime,
    prime_count,
    prime_count_progression,
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
        with pytest.raises(DomainError):
            prime_count_progression(Progression(4, 3), 101, table)

    def test_peak_memory_is_the_sieve(self):
        # Only the x + 1 byte mask: no padded copy, no list of primes.
        x = 2_000_000
        assert traced_peak(lambda: prime_count(x)) <= 1.1 * (x + 1)
        assert traced_peak(
            lambda: prime_count_progression(Progression(4, 3), x)
        ) <= 1.1 * (x + 1)


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
        table = sieve(x)
        primes = np.flatnonzero(table.membership)
        for a in [s * m for m in range(1, 31) for s in (1, -1)]:
            for b in (-2 * a - 1, -1, 0, 3, abs(a) + 5, 7 * abs(a) - 2):
                p = Progression(a, b)
                expected = int(np.count_nonzero(primes % abs(a) == p.residue))
                assert prime_count_progression(p, x, table) == expected
