import bisect
import copy
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcomposites import numcore
from apcomposites.errors import CapacityError, DomainError
from apcomposites.numcore import (
    Factorization,
    PrimeTable,
    Progression,
    factorize,
    is_prime,
    prime_count,
    prime_counts,
    _ones,
    _period,
    _prime_segments,
    _small_sieve,
)
from conftest import oracle_factorize, oracle_is_prime, oracle_prime_mask, sieve_cap, traced_peak

# psi_t, the least strong pseudoprime to all of the first t prime bases,
# t = 1..13 (OEIS A014233).
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
]


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


def test_record_contract():
    from apcomposites.analysis import BoundCheck

    p = Progression(3, 2)
    assert p == Progression(b=2, a=3) and hash(p) == hash(Progression(3, 2))
    assert p != Progression(3, 5) and p != (3, 2)
    assert repr(p) == "Progression(a=3, b=2)"
    with pytest.raises(AttributeError):
        p.a = 4
    with pytest.raises(AttributeError):
        del p.b
    assert BoundCheck(1, 2.0, 3.0, True).detail == ()  # the default
    for args, kwargs in [((1, 2.0, 3.0), {}),  # missing field
                         ((1, 2.0, 3.0, True), {"param": 1}),  # repeated field
                         ((1, 2.0, 3.0, True), {"extra": 1}),  # unknown field
                         ((1, 2.0, 3.0, True, (), 0), {})]:  # too many values
        with pytest.raises(TypeError):
            BoundCheck(*args, **kwargs)
    f = factorize(12)
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(p) == p
    # Not a tuple, so json.dumps hands it to its default hook.
    assert json.dumps(f, default=lambda r: r.value) == "12"


class TestSieve:
    """The reference sieve the count tests compare against,
    conftest.oracle_prime_mask, checked against trial division."""

    def test_small(self):
        assert list(np.flatnonzero(oracle_prime_mask(10))) == [2, 3, 5, 7]

    def test_smallest(self):
        assert list(np.flatnonzero(oracle_prime_mask(2))) == [2]

    def test_count_100(self):
        assert np.count_nonzero(oracle_prime_mask(100)) == 25

    def test_matches_trial_division(self):
        mask = oracle_prime_mask(2_000)
        for n in range(2_001):
            assert mask[n] == oracle_is_prime(n)


def _sieved(limit: int) -> list[int]:
    """The primes <= limit that _small_sieve(limit) marks."""
    return list(itertools.compress(range(limit + 1), _small_sieve(limit)))


class TestSmallPrimes:
    @pytest.fixture(scope="class")
    def oracle_primes(self):
        return [n for n in range(65538) if oracle_is_prime(n)]

    def test_every_limit_to_400(self, oracle_primes):
        for limit in range(401):
            expected = oracle_primes[: bisect.bisect_right(oracle_primes, limit)]
            assert _sieved(limit) == expected

    def test_prime_squares_and_word_edge(self, oracle_primes):
        squares = [p * p for p in oracle_primes if p * p <= 65537]
        for limit in squares + [65535, 65536, 65537]:
            expected = oracle_primes[: bisect.bisect_right(oracle_primes, limit)]
            assert _sieved(limit) == expected


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

    @pytest.mark.parametrize("psi", sorted(set(STRONG_PSEUDOPRIMES[:12])))
    def test_strong_pseudoprimes_are_composite(self, psi):
        # psi_t is a strong pseudoprime to the first t prime bases, so
        # only the (t+1)-th base, up to 41 at psi_12, shows it composite.
        assert not is_prime(psi)

    def test_past_psi_13_is_refused(self):
        with pytest.raises(CapacityError):
            is_prime(STRONG_PSEUDOPRIMES[12])


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

    def test_same_result_fresh_and_warm(self):
        # The answer may not depend on the calls made before it: in a
        # fresh process, and after factoring two other semiprimes.
        n = 1_000_003 * 1_000_033
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from apcomposites.numcore import factorize; "
                                   "print(factorize(int(sys.argv[1])).factors)", str(n)],
            env=env, capture_output=True, text=True, check=True).stdout
        factorize(600_011 * 600_043)
        factorize(999_983 * 999_979)
        warm = factorize(n).factors
        assert warm == ((1_000_003, 1), (1_000_033, 1))
        assert fresh == f"{warm}\n"

    def test_derived_counts(self):
        f = factorize(2**5 * 3 * 49)
        assert f.omega == 3
        assert f.big_omega == 8
        assert f.gpf == 7

    def test_verify_catches_bad_product(self):
        assert not Factorization(12, ((2, 1), (3, 1))).verify()
        assert not Factorization(12, ((3, 1), (2, 2))).verify()  # not ascending

    def test_psi_12_splits(self):
        # A strong pseudoprime to the 12 bases up to 37, with two 12-digit
        # prime factors that only rho reaches.
        assert factorize(STRONG_PSEUDOPRIMES[11]).factors == (
            (399_165_290_221, 1), (798_330_580_441, 1))

    def test_psi_13_edge(self):
        # Past psi_13, a part with a prime factor <= 47 is still split,
        # but one with none is refused by is_prime.
        assert factorize(2**100).factors == ((2, 100),)
        with pytest.raises(CapacityError, match="^n beyond the deterministic witness range$"):
            factorize(53**15)


class TestAgainstSympy:
    """The second, independent oracle: sympy's isprime and factorint, on a
    seeded log-uniform sample up to 1e12, semiprimes of two primes below
    1e6 and of two 9- to 11-digit primes, prime powers, a product of two
    13-digit primes, and the strong pseudoprimes psi_t."""

    @pytest.fixture(scope="class")
    def sample(self):
        rng = random.Random(2017)
        xs = [rng.randrange(2, 10 ** rng.randint(1, 12) + 1) for _ in range(2000)]
        primes = np.flatnonzero(oracle_prime_mask(10**6)).tolist()
        xs += [rng.choice(primes) * rng.choice(primes) for _ in range(200)]

        def big_prime():
            digits = rng.randint(9, 11)
            q = rng.randrange(10 ** (digits - 1), 10**digits)
            while not is_prime(q):
                q += 1
            return q

        xs += [big_prime() * big_prime() for _ in range(20)]
        xs += [1009**3, 1_000_003**2, 1_000_000_000_039 * 1_000_000_000_061]
        return xs + STRONG_PSEUDOPRIMES[:12]

    def test_is_prime(self, sample):
        sympy = pytest.importorskip("sympy")
        for n in sample:
            assert is_prime(n) == sympy.isprime(n), n

    def test_factorize(self, sample):
        sympy = pytest.importorskip("sympy")
        for n in sample:
            assert dict(factorize(n).factors) == sympy.factorint(n), n


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
        # A table answers only up to the largest point of its pass.
        table = prime_counts([100])
        assert table.count(100) == 25
        for x in (101, 1000):
            with pytest.raises(DomainError):
                table.count(x)

    def test_powers_of_ten(self):
        # OEIS A006880, typed in: independent of every sieve here. 10**8 and
        # 10**9 are past the default sieve cap, so the cap is raised to 10**9.
        expected = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534]
        with sieve_cap(10**9):
            assert [prime_count(10**k) for k in range(1, 10)] == expected
        counts = prime_counts(10**k for k in range(1, 8))
        assert [counts.count(10**k) for k in range(1, 8)] == expected[:7]

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        segment = numcore._SEGMENT
        # Index n of 2n + 1 starts segment k at n = k * segment.
        edges = [2 * k * segment + 1 + d for k in range(1, 4) for d in (-2, -1, 0, 1, 2)]
        points = [rng.randint(1, 2_000_000) for _ in range(200)] + edges
        counts = prime_counts(points)
        for x in points:
            assert counts.count(x) == int(sympy.primepi(x)), x
        for x in edges:
            # x - 1 is not x // i, so x ends a segment pass.
            assert prime_counts((x - 1, x)).count(x) == int(sympy.primepi(x)), x
        for x in points[:20]:
            assert prime_count(x) == int(sympy.primepi(x)), x

    def test_peak_memory_is_the_sieve(self):
        # Lehmer's pre-sieve of min(x^(3/4), 64*sqrt(x)) / 2 bytes and a
        # table of sqrt(x) rows, its small half C ints; a segment pass
        # holds one segment of 2**18 indices, the zeros of one stride and
        # the base primes, whatever x is: no [0, x] mask.
        for x in (2_000_000, 20_000_000):
            assert traced_peak(lambda: prime_count(x)) <= 1 << 20, x
            assert traced_peak(lambda: prime_counts((x - 1, x))) <= 1 << 20, x
            assert traced_peak(lambda: prime_count(x, Progression(4, 3))) <= 1 << 20, x


class TestPrimeCounts:
    def test_unsorted_points_with_repeats(self):
        points = [1000, 10, 2, 1000, 3, 100, 10, 4]
        counts = prime_counts(points)
        assert [counts.count(x) for x in points] == [168, 4, 1, 168, 2, 25, 4, 2]

    def test_points_below_two(self):
        counts = prime_counts([1, 0, -5, 2])
        assert [counts.count(x) for x in (-5, 0, 1, 2)] == [0, 0, 0, 1]
        assert prime_counts([1]).count(1) == 0

    def test_unrecorded_point_rejected(self):
        counts = prime_counts([10, 100])
        assert isinstance(counts, PrimeTable)
        for x in (11, 99, 101):
            with pytest.raises(DomainError, match=f"pi\\({x}\\)"):
                counts.count(x)

    def test_no_points_rejected(self):
        with pytest.raises(DomainError):
            prime_counts([])

    def test_matches_table(self):
        pi = np.cumsum(oracle_prime_mask(20_000))
        points = list(range(0, 20_001, 37)) + [20_000]
        counts = prime_counts(points)
        for x in points:
            assert counts.count(x) == pi[x]


class TestLucy:
    """The point-count kernel, `_lehmer` (Lucy's before it), against a
    segment pass, at every point x // i and up to sqrt(x)."""

    @pytest.mark.parametrize("top", sorted({
        2, 3, 4, 2**20, 10**6 + 7,
        *(r * r + d for r in (2, 3, 10, 97, 1000) for d in (-1, 0, 1)),
    }))
    def test_matches_segment_pass(self, monkeypatch, top):
        r = math.isqrt(top)
        points = sorted({*range(1, r + 1), *(top // i for i in range(1, r + 1))})
        lehmer = numcore._lehmer
        calls = []
        monkeypatch.setattr(numcore, "_lehmer",
                            lambda x, rows: calls.append(x) or lehmer(x, rows))
        table = prime_counts(points)
        # top - 1 is not top // i (unless it is below 2).
        forced = prime_counts([*points, top - 1])
        assert calls == [top] * (1 + (top == 2))
        pi = np.cumsum(oracle_prime_mask(top))
        for x in points:
            assert table.count(x) == forced.count(x) == pi[x], x

    def test_random_points_match_segment_pass(self):
        rng = random.Random(11)
        points = [rng.randint(2, 10**7) for _ in range(50)]
        table = prime_counts(points)  # one segment pass for all of them
        assert [prime_count(x) for x in points] == [table.count(x) for x in points]

    @pytest.mark.parametrize("points", [[11, 20], [99, 100], [5, 13, 100], [3, 2000, 1001]])
    def test_other_points_take_the_segment_pass(self, monkeypatch, points):
        monkeypatch.setattr(numcore, "_lehmer", None)
        counts = prime_counts(points)
        assert [counts.count(x) for x in points] == [
            sum(map(oracle_is_prime, range(x + 1))) for x in points]


class TestLehmer:
    """`_lehmer`, Lucy's table by Lehmer's formula, against counts of a
    segment pass, and of sympy: at every point of each x to 3,000; where
    the wheel first applies (13**4) and where the pre-sieve's 64*sqrt(x)
    cap takes over (near 64**4); beside k**4, k**3 and k**2, where a prime
    moves between the sieved primes, P2 and P3; beside multiples of the
    wheel's 30030; and at seeded x."""

    @staticmethod
    def _every_point(x: int) -> list[int]:
        r = math.isqrt(x)
        return sorted({*range(2, r + 1), *(x // i for i in range(1, r + 1))} - {1})

    @staticmethod
    def _counts(x: int, points: list[int]) -> dict[int, int]:
        """{v: pi(v)} off the table of x, for points v <= isqrt(x) or of
        the form x // i, asking for the rows of the latter alone."""
        r = math.isqrt(x)
        small, large = numcore._lehmer(x, {x // v for v in points if v > r})
        return {v: small[v] if v <= r else large[x // v] for v in points}

    @staticmethod
    def _edge_families() -> set[int]:
        rng = random.Random(34)
        xs = {k**4 + d for k in range(2, 91) for d in (-1, 0, 1)}
        xs |= {k**3 + d for k in rng.sample(range(2, 400), 40) for d in (-1, 1)}
        xs |= {k * k + d for k in rng.sample(range(2, 8000), 40) for d in (-1, 1)}
        xs |= {30030 * k + d for k in (*range(1, 20), *rng.sample(range(20, 2200), 20))
               for d in (-1, 1)}
        return xs | {28560, 28561, 16769023, 16769024, 16777215, 16777216}

    def test_every_point_to_3000(self):
        table = prime_counts(range(3001))  # 2999 is not 3000 // i: one segment pass
        for x in range(2, 3001):
            points = self._every_point(x)
            assert self._counts(x, points) == {v: table.count(v) for v in points}, x

    def test_whole_table(self):
        # Every row asked: small[v] = pi(v) for v <= isqrt(x), and
        # large[i] = pi(x // i), at every x to 2,000 and on the edge
        # families, each batch of ascending x against one segment pass
        # over all their points.
        xs = sorted(self._edge_families())
        with sieve_cap(xs[-1]):
            for batch in [range(2, 2001), *(xs[i : i + 12] for i in range(0, len(xs), 12))]:
                # The largest x less 1 is not one of its quotients.
                table = prime_counts([0, 1, batch[-1] - 1,
                                      *(v for x in batch for v in self._every_point(x))])
                for x in batch:
                    r = math.isqrt(x)
                    small, large = numcore._lehmer(x, range(1, r + 1))
                    assert len(small) == len(large) == r + 1, x
                    assert list(small) == [table.count(v) for v in range(r + 1)], x
                    assert large[1:] == [table.count(x // i) for i in range(1, r + 1)], x

    def test_edge_families(self):
        xs = self._edge_families()
        with sieve_cap(max(xs)):
            table = prime_counts(xs)  # not all x // i of the largest: one segment pass
            for x in sorted(xs):
                assert prime_count(x) == table.count(x), x

    def test_seeded_x(self):
        rng = random.Random(3434)
        xs = [rng.randint(2, 2 * 10**7) for _ in range(500)]
        table = prime_counts(xs)
        assert [prime_count(x) for x in xs] == [table.count(x) for x in xs]

    def test_seeded_x_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3435)
        for x in [rng.randint(2, 2 * 10**7) for _ in range(20)]:
            assert prime_count(x) == int(sympy.primepi(x)), x

    @pytest.mark.parametrize("top", [28561, 10**6 + 1, 16769024, 30030 * 999 + 1, 5 * 10**7])
    def test_every_quotient(self, top):
        # Many points above the pre-sieve in one call, each with its own
        # P2 and P3 sums, read in one pass.
        points = self._every_point(top)
        table = prime_counts([*points, top - 1])  # top - 1 is not top // i
        assert self._counts(top, points) == {v: table.count(v) for v in points}

    def test_point_below_y_squared_past_64_to_the_6th(self):
        # At 1e11 > 64**6, y = x // (64*sqrt(x)) exceeds x^(1/3): the point
        # 22222222 lies above the pre-sieve, x // y, but below y*y, so it
        # has no P2 or P3 term.
        with sieve_cap(10**11):
            table = prime_counts([22222222, 10**11])
        assert table.count(10**11) == 4_118_054_813
        assert table.count(22222222) == prime_counts([22222221, 22222222]).count(22222222)

    def test_peak_memory_at_1e9(self):
        # The pre-sieve of 64*sqrt(x) / 2 bytes, 1 MB here, an array of
        # sqrt(x) C ints for small and a list of sqrt(x) rows for large,
        # few of them filled. Lucy's lists of sqrt(x) ints peaked at 5.3 MiB.
        with sieve_cap(10**9):
            assert traced_peak(lambda: prime_count(10**9)) <= 4 << 20


def _trial_bits(p: Progression, lo: int, hi: int, units: int) -> list[int]:
    """1 for each n in [lo, hi] with |a*n + b| prime, or at most 1 when
    units is 1, by trial division."""
    return [int(oracle_is_prime(abs(t)) or units and abs(t) <= 1)
            for t in map(p.term, range(lo, hi + 1))]


class TestPrimeSegments:
    """The index-space sieve under every count: masks over the n of a*n + b."""

    @pytest.mark.parametrize("a, b", [(1, 0), (2, 1), (3, -20), (6, 1), (7, 14), (12, -1)])
    @pytest.mark.parametrize("lo, hi", [(0, 500), (7, 300), (5, 5), (0, 0)])
    def test_matches_trial_division(self, monkeypatch, a, b, lo, hi):
        p = Progression(a, b)
        for units in (0, 1):
            expected = _trial_bits(p, lo, hi, units)
            for segment in (1, 7, 97, 1 << 18):
                monkeypatch.setattr(numcore, "_SEGMENT", segment)
                segments = list(_prime_segments(p, lo, hi, units))
                assert [start for start, _ in segments] == list(range(lo, hi + 1, segment))
                assert [bit for _, mask in segments for bit in mask] == expected, segment

    def test_empty_range(self):
        assert list(_prime_segments(Progression(2, 1), 5, 4)) == []

    def test_period(self):
        # The leading classes whose product stays within a quarter segment,
        # and none for a range of one segment.
        more = (1 << 18) + 1
        assert _period([2, 3, 5, 7, 11, 13, 17], more) == (6, 30030)
        assert _period([3, 5, 7, 11, 13, 17], more) == (5, 15015)
        assert _period([2, 3, 5, 7], more) == (4, 210)
        assert _period([], more) == _period([2, 3], 1 << 18) == (0, 1)

    @pytest.mark.parametrize("a, b, lo, hi", [
        (6, 4, 0, 70_000),  # 2 divides a and b: every mask starts cleared
        (10, 15, 1, 70_000),  # 5 divides a and b
        (30, 7, 0, 300_000),  # 2, 3, 5 divide a, so no class of theirs
        (2, -99_999, 0, 120_000),  # negative b: terms pass through 0
        (4, -1_000_001, 5, 300_000),
        (1, 0, 123_457, 400_001),  # lo > 0, across segment edges
        (3, 2, 1_000_000, 1_000_050),  # short and far from 0
        # Too short for every class of the full pattern to be sieved.
        (1, 0, 0, 0), (1, 0, 0, 24), (1, 0, 0, 168), (2, 1, 0, 84), (2, 1, 3, 1000),
        # The n with |term| <= isqrt(max |term|) span several segments and
        # cross 0; with a prime q dividing a and b, only the terms +-q are prime.
        (1, -500, 0, 1000), (3, -1000, 0, 700), (10, -5, 0, 1000), (6, -3, 0, 400),
    ])
    def test_pattern_matches_reference_mask(self, monkeypatch, a, b, lo, hi):
        # Past one segment, each mask starts as a slice of the pattern of
        # the smallest classes, whose period follows the segment size:
        # segments of 1 << 18 take the period 30030 (15015 for an even a),
        # and the patched sizes are smaller than that, down to no pattern.
        p = Progression(a, b)
        terms = np.abs(a * np.arange(lo, hi + 1) + b)
        primes = oracle_prime_mask(int(terms.max()))[terms]
        for units in (0, 1):
            expected = primes | (terms <= 1) if units else primes
            for segment in (1, 7, 97, 1000, 1 << 16, 1 << 18):
                if (hi - lo) // segment > 300:
                    continue
                monkeypatch.setattr(numcore, "_SEGMENT", segment)
                masks = b"".join(mask for _, mask in _prime_segments(p, lo, hi, units))
                assert np.array_equal(np.frombuffer(masks, dtype=np.uint8), expected), segment

    def test_counts_independent_of_segmentation(self, segment):
        points = [2, 3, 97, 98, 4999, 5000]
        counts = prime_counts(points)
        assert [counts.count(x) for x in points] == [1, 2, 25, 25, 669, 669]
        # Segment sizes that divide a (7 | 7, 7 | 14, 97 | 97) and that do not.
        for a in (1, 6, 7, 14, 97):
            for b in (0, 1, 5, a - 1):
                p = Progression(a, b)
                expected = sum(1 for q in range(5001) if oracle_is_prime(q)
                               and q % a == b % a)
                assert prime_count(5000, p) == expected, p


class TestOnes:
    """_ones, the Adler-32 count of a 0/1 mask, against bytearray.count."""

    @pytest.mark.parametrize("ones", [0, 1, 65_519, 65_520, 65_521, 131_040, 131_041, 1 << 18])
    def test_all_ones(self, ones):
        # 65520 ones are the most one Adler-32 sum holds below its modulus.
        mask = bytearray([1]) * ones
        assert _ones(mask) == _ones(bytearray(2) + mask + bytearray(5), 1) == ones
        assert _ones(mask, 1, ones - 1) == max(0, ones - 2)

    def test_empty(self):
        mask = bytearray([1]) * 10
        assert _ones(bytearray()) == _ones(mask, 4, 4) == _ones(mask, 7, 3) == _ones(mask, 10) == 0

    def test_random_masks(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.choice((1, 2, 101, 65_520, 65_521, 200_001, 1 << 18))
            below = rng.randrange(257)  # bytes below it become 1
            mask = bytearray(rng.randbytes(n).translate(bytes(i < below for i in range(256))))
            lo, hi = sorted(rng.randrange(n + 1) for _ in range(2))
            lo |= 1  # odd, so every chunk starts at an odd offset
            assert _ones(mask) == mask.count(1)
            assert _ones(mask, lo) == mask.count(1, lo)
            assert _ones(mask, lo, hi) == mask.count(1, lo, hi)


class TestSegmentCounts:
    @pytest.mark.parametrize("a, b, lo", [
        (2, 1, 0), (3, -20, 1), (12, -1, 5),
        # The n with |term| <= isqrt(max |term|) span several segments and
        # cross 0; with a prime q dividing a and b, only the terms +-q are prime.
        (1, -500, 0), (3, -1000, 0), (10, -5, 0), (6, -3, 0),
    ])
    def test_matches_trial_division(self, monkeypatch, a, b, lo):
        # Ends at lo - 1, repeated, on segment edges and past _COUNT_RUN
        # bytes of one segment.
        p = Progression(a, b)
        ends = sorted([lo - 1, lo - 1, lo, lo + 6, lo + 96, lo + 97, lo + 2050, lo + 2050]
                      + random.Random(a).sample(range(lo, lo + 3000), 20))
        for units in (0, 1):
            bits = _trial_bits(p, lo, lo + 2999, units)
            expected = [sum(bits[: end + 1 - lo]) for end in ends]
            for segment in (7, 97, 1 << 18):
                monkeypatch.setattr(numcore, "_SEGMENT", segment)
                counts = numcore._segment_counts(p, lo, ends[-1], ends, units)
                assert list(counts) == expected, segment
                counts = numcore._segment_counts(p, lo, ends[-1], iter(ends), units)
                assert list(counts) == expected
            assert list(numcore._segment_counts(p, lo, lo - 1, [lo - 1], units)) == [0]


class TestPrimeCountProgression:
    def test_examples(self):
        assert prime_count(20, Progression(4, 3)) == 4  # 3,7,11,19
        assert prime_count(100, Progression(2, 0)) == 1  # just 2
        assert prime_count(100, Progression(1, 0)) == 25

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 12])
    def test_residues_partition_pi(self, a):
        x = 3000
        total = sum(prime_count(x, Progression(a, b)) for b in range(a))
        assert total == prime_count(x)

    def test_negative_b_reduced(self):
        assert prime_count(20, Progression(4, -1)) == prime_count(20, Progression(4, 3))

    def test_matches_residue_filter(self):
        # Unreduced and negative offsets, and negative steps.
        x = 5_000
        primes = np.flatnonzero(oracle_prime_mask(x))
        for a in [s * m for m in range(1, 31) for s in (1, -1)]:
            for b in (-2 * a - 1, -1, 0, 3, abs(a) + 5, 7 * abs(a) - 2):
                p = Progression(a, b)
                expected = int(np.count_nonzero(primes % abs(a) == p.residue))
                assert prime_count(x, p) == expected

    def test_points_match_trial_division(self, monkeypatch):
        # One pass over a class at many points: steps of both signs, offsets
        # inside and outside [0, |a|), gcd(a, b) > 1, and points repeated,
        # below 2, and on and beside the segment edges of the class's
        # indices |a|*n + (b mod |a|). A progression never takes Lehmer's path.
        primes = [q for q in range(3001) if oracle_is_prime(q)]
        monkeypatch.setattr(numcore, "_lehmer", None)
        rng = random.Random(26)
        for segment in (7, 97, 1 << 18):
            monkeypatch.setattr(numcore, "_SEGMENT", segment)
            for a in (1, -1, 2, 3, 4, 6, 10, 12, 30):
                m = abs(a)
                for b in (0, m - 1, m + 2, -m - 1, *rng.sample(range(-3 * m, 3 * m + 1), 3)):
                    p = Progression(a, b)
                    edges = [m * k * segment + p.residue + d for k in (1, 2, 3) for d in (-1, 0, 1)]
                    points = [x for x in edges if x <= 3000] + rng.choices(range(-5, 3001), k=12)
                    points += rng.choices(points, k=4)
                    counts = prime_counts(rng.sample(points, len(points)), p)
                    assert [counts.count(x) for x in points] == [
                        sum(q <= x and q % m == p.residue for q in primes) for x in points
                    ], (a, b, segment)

    def test_chebyshev_bias(self):
        # Typed in: the class 4n + 3 leads 4n + 1 (Rubinstein and Sarnak,
        # Experimental Math. 3, 1994), and with the prime 2 they are pi(x).
        one, three = (prime_counts([10**6, 10**7], Progression(4, b)) for b in (1, 3))
        assert [(one.count(x), three.count(x)) for x in (10**6, 10**7)] == [
            (39_175, 39_322), (332_180, 332_398)]
        assert [1 + one.count(x) + three.count(x) for x in (10**6, 10**7)] == [78_498, 664_579]

    def test_every_class_start(self, oracle_primes_1000):
        # b in -2a..2a covers gcd(a, b) > 1 and b = 0 or 1 mod a: the classes
        # whose first term is a prime q, 0 or 1. x below, at and past b.
        for a in [s * m for m in range(1, 31) for s in (1, -1)]:
            for b in range(-2 * abs(a), 2 * abs(a) + 1):
                p = Progression(a, b)
                for x in (1, 2, abs(b) + 1, 1000):
                    expected = sum(1 for q in oracle_primes_1000
                                   if q <= x and q % abs(a) == b % abs(a))
                    assert prime_count(x, p) == expected, (a, b, x)
