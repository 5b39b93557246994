import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcomposites import constructions, numcore
from apcomposites.constructions import (
    FACTORIZATION_CAP,
    DivisorPair,
    consecutive_in_progression,
    factorial_consecutive,
    k_composite_witnesses,
    polynomial_composites,
    three_composites_4n3,
    witness_multiple_of_b,
    witness_power,
    witness_unit_b,
)
from apcomposites.errors import (
    CapacityError,
    DegenerateInputError,
    DomainError,
    WrongBranchError,
    first,
)
from apcomposites.numcore import Factorization, Progression, factorize
from conftest import (
    oracle_is_prime,
    oracle_k_composite,
    oracle_prime_mask,
    run_cli,
    sieve_cap,
    traced_peak,
)


class TestWitnessMultipleOfB:
    def test_b4(self):
        w = witness_multiple_of_b(Progression(3, 4), 1)
        assert (w.n, w.value) == (4, 16)
        assert w.proof.factors == ((2, 4),)
        assert w.verify()

    def test_b2(self):
        w = witness_multiple_of_b(Progression(1, 2), 1)
        assert (w.n, w.value) == (2, 4)

    def test_negative_b(self):
        w = witness_multiple_of_b(Progression(5, -6), 2)
        assert (w.n, w.value) == (-12, -66)
        assert dict(w.proof.factors) == {2: 1, 3: 1, 11: 1}
        assert w.verify()

    def test_unit_offset_is_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            witness_multiple_of_b(Progression(3, 1), 1)

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(1, 50))
    @settings(max_examples=100)
    def test_value_divisible_by_b(self, a, b, m):
        w = witness_multiple_of_b(Progression(a, b), m)
        assert w.value % b == 0
        assert w.value == b * (a * m + 1)
        assert w.verify()


class TestWitnessUnitB:
    def test_a2_b1(self):
        w = witness_unit_b(Progression(2, 1), 3)
        assert (w.n, w.value) == (17, 35)
        assert w.proof.factors == ((5, 1), (7, 1))

    def test_a1_b1(self):
        w = witness_unit_b(Progression(1, 1), 2)
        assert (w.n, w.value) == (5, 6)

    def test_degenerate_reports_minimal_m(self):
        with pytest.raises(DegenerateInputError, match="minimal admissible m is 2$"):
            witness_unit_b(Progression(2, -1), 1)
        w = witness_unit_b(Progression(2, -1), 2)
        assert (w.n, w.value) == (8, 15)

    def test_identity_exhaustive(self):
        for a in range(1, 51):
            for b in (-1, 1):
                for m in (2, 3, 50, 100):
                    if abs(a * m + b) <= 1:  # only a=1, b=-1, m=2
                        continue
                    w = witness_unit_b(Progression(a, b), m)
                    assert w.value == (a * a + 1) * (a * m + b)
                    assert w.verify()


class TestWitnessPower:
    def test_minus(self):
        w = witness_power(1, -1, 1)
        assert (w.n, w.value) == (27, 26)
        assert w.proof.factors == ((2, 1), (13, 1))

    def test_plus(self):
        w = witness_power(1, 1, 1)
        assert (w.n, w.value) == (27, 28)
        assert w.value % 4 == 0

    def test_a2(self):
        w = witness_power(2, -1, 1)
        assert (w.n, w.value) == (108, 215)
        assert dict(w.proof.factors) == {5: 1, 43: 1}

    def test_divisibility_identities(self):
        for a in range(1, 21):
            for k in range(1, 6):
                assert ((3 * a) ** (2 * k + 1) - 1) % (3 * a - 1) == 0
                assert ((3 * a) ** (2 * k + 1) + 1) % (3 * a + 1) == 0
                for sign in (-1, 1):
                    assert witness_power(a, sign, k).verify()


class TestFactorialConsecutive:
    def test_m5(self):
        ws = factorial_consecutive(5)
        assert [w.value for w in ws] == [122, 123, 124, 125]

    def test_m3(self):
        assert [w.value for w in factorial_consecutive(3)] == [8, 9]

    def test_m4(self):
        assert [w.value for w in factorial_consecutive(4)] == [26, 27, 28]

    def test_m_below_3_rejected(self):
        with pytest.raises(DomainError):
            factorial_consecutive(2)

    def test_m_past_maxsize_is_a_capacity_error(self):
        # math.factorial takes at most sys.maxsize; the domain comes first.
        with pytest.raises(CapacityError, match=f"^m {sys.maxsize + 1} exceeds "):
            factorial_consecutive(sys.maxsize + 1)
        with pytest.raises(DomainError):
            factorial_consecutive(-(10**19))

    def test_divisibility_through_m20(self):
        import math

        for m in range(3, 21):
            ws = factorial_consecutive(m)
            assert len(ws) == m - 1
            for j, w in zip(range(2, m + 1), ws):
                assert (math.factorial(m) + j) % j == 0
                assert w.verify()

    def test_large_m_uses_divisor_pairs(self):
        ws = factorial_consecutive(25)
        assert all(isinstance(w.proof, DivisorPair) for w in ws)
        assert all(w.verify() for w in ws)


class TestConsecutiveInProgression:
    def test_integers_n3(self):
        res = consecutive_in_progression(Progression(1, 0), 3)
        assert res.start_n == 8  # 8, 9, 10

    def test_odd_n2(self):
        res = consecutive_in_progression(Progression(2, 1), 2)
        assert res.start_n == 12  # 25, 27

    def test_n1(self):
        res = consecutive_in_progression(Progression(1, 1), 1)
        assert res.start_n == 3  # value 4

    def test_factorial_bound_verified(self):
        # m >= a*N + |b| + 2 puts N progression terms inside m!+2 .. m!+m.
        import math

        for a, b, N in [(1, 0, 3), (2, 1, 2), (3, 2, 4)]:
            res = consecutive_in_progression(Progression(a, b), N)
            m = res.factorial_m_bound
            fact = math.factorial(m)
            lo = fact + 2
            hi = fact + m
            hits = [
                n
                for n in range((lo - b) // a, (hi - b) // a + 2)
                if lo <= a * n + b <= hi
            ]
            assert len(hits) >= N


# Run lengths of the grid: every N <= 30 in the oracle, these in the scan.
RUN_LENGTHS = (1, 2, 3, 5, 8, 13, 20, 30)
# Every first run of N <= 30 composites for a <= 12, |b| <= 3a starts
# below this index.
RUN_INDICES = 200_000


@pytest.fixture(scope="module")
def first_runs():
    """{(a, b, N): n0} for a <= 12, b in [-3a, 3a], N in RUN_LENGTHS: the
    least n0 >= 1 with |a*n + b| composite for n0 <= n < n0 + N, each
    index's term looked up in a whole-range numpy sieve."""
    import numpy as np

    prime = oracle_prime_mask(12 * RUN_INDICES + 36)
    n = np.arange(1, RUN_INDICES + 1)
    out = {}
    for a in range(1, 13):
        for b in range(-3 * a, 3 * a + 1):
            terms = np.abs(a * n + b)
            composite = bytes(((terms > 1) & ~prime[terms]).astype(np.uint8))
            for N in RUN_LENGTHS:
                at = composite.find(b"\x01" * N)
                assert 0 <= at <= RUN_INDICES - N
                out[a, b, N] = at + 1
    return out


class TestConsecutiveAgainstOracle:
    def test_grid(self, segment, first_runs):
        # A one-index segment re-walks every base prime, so the two
        # smallest sizes take the runs that start before n = 2000, 91% of
        # the grid, and the larger sizes take them all.
        for (a, b, N), n0 in first_runs.items():
            if segment < 97 and n0 >= 2000:
                continue
            res = consecutive_in_progression(Progression(a, b), N)
            assert res.start_n == n0, (a, b, N)
            assert [w.n for w in res.witnesses] == list(range(n0, n0 + N))
            assert all(w.verify() for w in res.witnesses)

    def test_6n_plus_1_run_of_50(self):
        res = consecutive_in_progression(Progression(6, 1), 50)
        assert res.start_n == 1_993_776
        assert all(w.verify() for w in res.witnesses)

    def test_run_up_to_the_factorization_cap(self):
        # 10^12 - 4 .. 10^12 are composite; 10^12 + 1 is past the cap.
        p = Progression(1, FACTORIZATION_CAP - 5)
        assert consecutive_in_progression(p, 5).start_n == 1
        with pytest.raises(CapacityError, match=r"^no run of 6 composites found for n <= 5; "
                                                r"past it \|a\*n \+ b\| > 10+, the factorization cap$"):
            consecutive_in_progression(p, 6)

    @pytest.mark.parametrize("b", [1, -3 * 10**12])
    def test_first_term_past_the_factorization_cap(self, b):
        with pytest.raises(CapacityError, match="for n <= 0; past it"):
            consecutive_in_progression(Progression(10**12, b), 1)

    def test_scan_cap(self, monkeypatch):
        monkeypatch.setattr(constructions, "CONSECUTIVE_SCAN_CAP", 10)
        # 2n + 1 for n <= 10 ends ..., 19, 21: a partial run of 1.
        with pytest.raises(CapacityError, match=r"^no run of 5 composites found for n <= 10 "
                                                r"\(longest partial run: 1\)$"):
            consecutive_in_progression(Progression(2, 1), 5)

    def test_count_past_the_scan_cap_is_refused_before_allocation(self):
        def call():
            with pytest.raises(CapacityError, match=r"^no run of 10+ composites found "
                                                    r"for n <= 10000000$"):
                consecutive_in_progression(Progression(6, 1), 10**12)

        assert traced_peak(call) < 1 << 20


class TestKComposites:
    def test_spec_example_4n1(self):
        ws = k_composite_witnesses(Progression(4, 1), 2, 5)
        found = {(w.n, w.value) for w in ws}
        assert (21, 85) in found  # 85 = 17 * 5

    def test_k1_odd(self):
        ws = k_composite_witnesses(Progression(2, 1), 1, 3)
        assert [(w.n, w.value) for w in ws] == [(1, 3), (2, 5), (3, 7)]

    def test_gcd_precondition(self):
        with pytest.raises(DomainError):
            k_composite_witnesses(Progression(6, 3), 2, 1)

    def test_gcd_1_0_allowed(self):
        ws = k_composite_witnesses(Progression(1, 0), 1, 3)
        assert [w.value for w in ws] == [2, 3, 5]

    @pytest.mark.parametrize("mode", ["distinct", "multiplicity"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mode_factor_counts(self, mode, k):
        for a, b in [(4, 1), (3, 2)]:
            for w in k_composite_witnesses(Progression(a, b), k, 3, mode):
                f = factorize(w.value)
                count = f.omega if mode == "distinct" else f.big_omega
                assert count == k
                assert w.verify()
                assert w.progression.term(w.n) == w.value

    @pytest.mark.parametrize("mode", ["distinct", "multiplicity"])
    def test_proof_is_the_factorization(self, mode):
        # Each proof is built from the base prime and the k - 1 primes
        # s*a^2 + 1 taken; it must equal a fresh factorization of the value.
        for a in range(1, 11):
            for b in range(-10, 11):
                if math.gcd(a, b) != 1:
                    continue
                for k in range(1, 6):
                    for w in k_composite_witnesses(Progression(a, b), k, 2, mode):
                        assert w.proof == factorize(w.value)
                        assert w.verify()

    def test_factors_past_the_trial_bound(self):
        # Both new primes exceed 1e6, so factorize needs rho to split the
        # value; it must still equal the proof built from the primes taken.
        (w,) = k_composite_witnesses(Progression(1000, 1), 3, 1)
        assert w.proof.factors == ((3001, 1), (22000001, 1), (24000001, 1))
        assert w.proof == factorize(w.value)
        assert w.verify()

    def test_strong_pseudoprime_is_no_prime_term(self):
        # psi_12 = 318665857834031151167461 is a strong pseudoprime to the
        # 12 prime bases up to 37; the first prime term is at m = 23.
        (w,) = k_composite_witnesses(Progression(1, 318665857834031151167460), 1, 1)
        assert (w.n, w.value) == (23, 318665857834031151167483)
        assert w.verify()

    def test_no_prime_term_below_the_search_cap(self, monkeypatch):
        # m + 24 is not prime for m in [1, 4]; 29 is at m = 5.
        monkeypatch.setattr(constructions, "SEARCH_CAP", 4)
        with pytest.raises(CapacityError,
                           match=r"^no prime term a\*m\+b found for m in \[1, 4\]$"):
            k_composite_witnesses(Progression(1, 24), 1, 1)

    def test_no_admissible_s_below_the_search_cap(self, monkeypatch):
        # The base 5 = 3*1 + 2 needs a prime s*9 + 1 > 5: 10 is not, 19 is.
        monkeypatch.setattr(constructions, "SEARCH_CAP", 1)
        with pytest.raises(CapacityError,
                           match=r"^no admissible s <= 1 with s\*3\^2\+1 prime$"):
            k_composite_witnesses(Progression(3, 2), 2, 1)

    def test_matches_the_recursion(self, monkeypatch):
        # The step-by-step recursion gives the same witnesses, or the same
        # refusal. A search cap of 30 makes some of the searches for a
        # prime term or an s refuse.
        monkeypatch.setattr(constructions, "SEARCH_CAP", 30)
        rng = random.Random(30)
        cases = [(a, rng.randint(-30, 30)) for a in range(1, 13) for _ in range(20)]
        cases += [(a, rng.randint(40, 400)) for a in (-1, -2, -3, -4, -6, -10) for _ in range(10)]
        compared = refused = 0
        for a, b in cases:
            if math.gcd(a, b) != 1:
                continue
            p, count = Progression(a, b), rng.randint(1, 3)
            for k in (1, 2, 3, 5, 8):
                for mode in ("distinct", "multiplicity"):
                    outcomes = []
                    for build in (oracle_k_composite, k_composite_witnesses):
                        try:
                            outcomes.append(repr(build(p, k, count, mode)))
                        except CapacityError as exc:
                            outcomes.append(f"refused: {exc}")
                    assert outcomes[0] == outcomes[1], (a, b, k, count, mode)
                    compared += 1
                    refused += outcomes[0].startswith("refused")
        assert compared > 1500 and refused > 100

    @pytest.mark.parametrize("a, b", [(-2, 31), (-3, 100), (-7, 1000), (-1, 2), (-2, 1)])
    def test_negative_a_refused_at_the_last_term_above_1(self, monkeypatch, a, b):
        # Every term past m = (b - 2) // |a| is below 2, so the search for
        # one prime term more than there are ends there and names that m.
        last = max(0, (b - 2) // -a)
        primes = [m for m in range(1, last + 1) if oracle_is_prime(a * m + b)]
        tested = []
        monkeypatch.setattr(constructions, "is_prime",
                            lambda n: tested.append(n) or oracle_is_prime(n))
        p = Progression(a, b)
        if primes:
            assert [w.n for w in k_composite_witnesses(p, 1, len(primes))] == primes
            tested.clear()
        with pytest.raises(CapacityError, match=rf"a\*m\+b < 2 for every m > {last}$"):
            k_composite_witnesses(p, 1, len(primes) + 1)
        assert len(tested) <= (b - 2) // -a + 1

    def test_multiplicity_searches_q_once(self, monkeypatch):
        # Every q is the least prime s*4^2 + 1, 17: one search serves the
        # three steps of each of the five witnesses.
        refusals = []
        monkeypatch.setattr(constructions, "first",
                            lambda *args: refusals.append(args[3]) or first(*args))
        ws = k_composite_witnesses(Progression(4, 1), 4, 5, "multiplicity")
        assert sum(r.startswith("no admissible s") for r in refusals) == 1
        assert [w.value for w in ws] == [t * 17**3 for t in (5, 13, 17, 29, 37)]
        assert repr(ws) == repr(oracle_k_composite(Progression(4, 1), 4, 5, "multiplicity"))


class TestDigitLimit:
    """The four builders whose results grow without bound refuse, by an
    estimate from below of their digits, what Python would not write."""

    REFUSAL = (f"^the result holds an integer of more than {sys.get_int_max_str_digits()} "
               "digits, Python's limit for writing one as text$")

    @pytest.mark.parametrize("call", [
        lambda: witness_power(1, 1, 10**400),
        lambda: k_composite_witnesses(Progression(10, 1), 10**4, 1),
        lambda: k_composite_witnesses(Progression(-10, 1), 10**400, 1, "multiplicity"),
        lambda: factorial_consecutive(200000),
    ], ids=["witness_power", "k_composite_witnesses", "k_composite_witnesses_huge_k",
            "factorial_consecutive"])
    def test_refused_before_anything_is_built(self, call):
        def refused():
            with pytest.raises(CapacityError, match=self.REFUSAL):
                call()

        start = time.perf_counter()
        assert traced_peak(refused) < 1 << 16
        assert time.perf_counter() - start < 0.5

    def test_k_composite_refused_as_its_product_grows(self, monkeypatch):
        # k = 1800 passes the up-front estimate, 1799 * log10(5) digits.
        # The first witness's primes 4s + 1 soon show that it cannot fit.
        calls = []
        monkeypatch.setattr(constructions, "is_prime",
                            lambda n: calls.append(n) or numcore.is_prime(n))
        res = run_cli(["kcomposite", "--a", "2", "--b", "1", "--k", "1800", "--count", "20"])
        assert (res.code, res.out) == (3, "")
        assert re.match(self.REFUSAL, res.err.removeprefix("capacity error: "))
        assert 0 < len(calls) < 2000

    def test_polynomial_refused_as_each_value_is_built(self):
        # f(x) = x^15 + 10^300: f(0) = 10^300, and f(10^300) has 4,501
        # digits, refused before a second value is built.
        coeffs = [10**300, *[0] * 14, 1]

        def refused():
            with pytest.raises(CapacityError, match=self.REFUSAL):
                polynomial_composites(coeffs, 20000)

        start = time.perf_counter()
        assert traced_peak(refused) < 1 << 16
        assert time.perf_counter() - start < 0.5
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            (r,) = polynomial_composites(coeffs, 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (r.index, r.value) == (10**300, 10**4500 + 10**300)

    def test_domain_comes_first(self):
        with pytest.raises(DomainError):
            witness_power(1, 2, 10**400)
        with pytest.raises(DomainError):
            k_composite_witnesses(Progression(10, 1), 10**4, 1, "other")

    def test_largest_size_that_fits_is_answered(self):
        # (2k + 1) * log10(60) is 4,297.8 at k = 1208 and 4,301.3 at 1209,
        # so the rule refuses exactly what has more digits than the limit.
        limit = sys.get_int_max_str_digits()
        for k in (1200, 1208):
            w = witness_power(20, 1, k)
            assert w.verify() and len(str(w.value)) <= limit
        with pytest.raises(CapacityError, match=self.REFUSAL):
            witness_power(20, 1, 1209)
        assert 60**2419 > 10**limit  # so its value has more than limit digits
        ws = factorial_consecutive(1500)  # m! holds 4,115 digits
        assert len(ws) == 1499 and ws[-1].verify()

    def test_a_limit_of_zero_disables_the_rule(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            w = witness_power(20, 1, 3000)
            assert w.verify() and len(str(w.value)) > limit
        finally:
            sys.set_int_max_str_digits(limit)


class TestPolynomialComposites:
    def test_x2_plus_1(self):
        recs = polynomial_composites([1, 0, 1], 1)
        assert (recs[0].k, recs[0].j, recs[0].value, recs[0].divisor) == (1, 1, 10, 2)

    def test_euler_polynomial(self):
        recs = polynomial_composites([41, 1, 1], 1)
        r = recs[0]
        assert (r.k, r.index, r.value, r.divisor) == (0, 41, 1763, 41)
        assert 1763 == 41 * 43

    def test_linear_reduces_to_progression(self):
        recs = polynomial_composites([1, 2], 1)
        r = recs[0]
        assert (r.k, r.index, r.value) == (1, 4, 9)

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            polynomial_composites([5], 1)

    def test_count_past_the_search_cap_is_refused_at_once(self):
        def refused():
            with pytest.raises(CapacityError,
                               match=r"^fewer than 1000000000 records f\(k \+ j\*f\(k\)\) > "
                                     r"f\(k\) for j <= 1000000$"):
                polynomial_composites([1, 1], 10**9)

        assert traced_peak(refused) < 1 << 16

    def test_j_is_bounded_by_the_search_cap(self, monkeypatch):
        # f(x) = x^2 - 20x + 2: f(0) = 2, and f(2j) <= 2 for j <= 10.
        monkeypatch.setattr(constructions, "SEARCH_CAP", 10)
        with pytest.raises(CapacityError, match=r"^fewer than 1 records .* for j <= 10$"):
            polynomial_composites([2, -20, 1], 1)
        monkeypatch.setattr(constructions, "SEARCH_CAP", 11)
        (r,) = polynomial_composites([2, -20, 1], 1)
        assert (r.k, r.j, r.index, r.value) == (0, 11, 22, 46)

    def test_no_k_below_the_search_cap(self, monkeypatch):
        # k - 5 <= 1 for k in [0, 3]; f(6) = 1 too, and f(7) = 2.
        monkeypatch.setattr(constructions, "SEARCH_CAP", 3)
        with pytest.raises(CapacityError, match=r"^no k <= 3 with f\(k\) > 1$"):
            polynomial_composites([-5, 1], 1)

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(
            lambda c: c[-1] != 0
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=100)
    def test_divisibility_property(self, coeffs, count):
        recs = polynomial_composites(coeffs, count)
        for r in recs:
            assert r.value % r.divisor == 0
            assert r.value > r.divisor > 1
            assert r.verify()


class TestThreeComposites4n3:
    def test_k2_k3(self):
        res = three_composites_4n3(2, 100)
        pairs = [(w.n, w.value) for w in res.witnesses]
        assert pairs == [(18, 75), (43, 175)]
        assert not res.shortfall

    def test_k4_skipped(self):
        res = three_composites_4n3(10, 5)
        ks = [(w.value // 5) for w in res.witnesses]
        # k = 4 gives (7, 9), not a twin-prime pair
        assert 7 * 9 not in ks

    def test_shortfall_flag(self):
        res = three_composites_4n3(1000, 50)
        assert res.shortfall
        assert len(res.witnesses) < 1000

    def test_all_verified(self):
        res = three_composites_4n3(50, 10**4)
        assert len(res.witnesses) == 50
        for w in res.witnesses:
            assert w.value % 4 == 3
            assert w.proof.big_omega == 3
            assert w.verify()
            k = int(((w.value // 5 + 1) // 4) ** 0.5)
            assert w.value == 5 * (2 * k - 1) * (2 * k + 1)
            assert oracle_is_prime(2 * k - 1) and oracle_is_prime(2 * k + 1)

    def test_pairs_match_trial_division(self, monkeypatch):
        # The pairs are read off segments of 2j + 1: pairs that straddle a
        # segment edge (k = 15 at segment 7), a count reached on a
        # segment's last index (the 6th pair, k = 21, at segment 7), a
        # k_max on and past an edge, and shortfalls.
        twins = [k for k in range(2, 5001)
                 if oracle_is_prime(2 * k - 1) and oracle_is_prime(2 * k + 1)]
        for segment in (7, 97):
            monkeypatch.setattr(numcore, "_SEGMENT", segment)
            for k_max in (-1, 0, 1, 2, 3, 6, 7, 8, 13, 14, 15, 97, 98, 5000):
                for count in (1, 2, 5, 6, 37, 10**6):
                    res = three_composites_4n3(count, k_max)
                    want = [k for k in twins if k <= k_max][:count]
                    assert [(w.n, w.value) for w in res.witnesses] == [
                        (5 * k * k - 2, 5 * (2 * k - 1) * (2 * k + 1)) for k in want
                    ], (segment, k_max, count)
                    assert res.shortfall == (len(want) < count)

    def test_k_max_past_the_cap_refused_before_anything_is_built(self):
        def refused():
            with pytest.raises(CapacityError, match=r"^k_max 1000000000 needs a sieve to "
                                                    r"2000000001, the sieve cap is 50000000$"):
                three_composites_4n3(3, 10**9)

        start = time.perf_counter()
        assert traced_peak(refused) < 1 << 16
        assert time.perf_counter() - start < 0.5

    def test_count_refused_first(self):
        with sieve_cap(0), pytest.raises(DomainError, match="^count must be >= 1$"):
            three_composites_4n3(0, 10**9)
