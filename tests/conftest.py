import contextlib
import io
import math
import signal
import tracemalloc
from collections import namedtuple

import pytest


def oracle_is_prime(n: int) -> bool:
    """Naive trial division, independent of the library under test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def oracle_factorize(n: int) -> dict[int, int]:
    assert n >= 2
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_prime_mask(limit: int):
    """mask[n] is True exactly for the primes n <= limit: a whole-range
    numpy sieve of Eratosthenes, with its own base primes."""
    import numpy as np

    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def oracle_runs(bits) -> tuple[int, list[int]]:
    """(L, starts) for a 0/1 array where bits[i] stands for n = i + 1: the
    greatest length L of a run of 1s, and the n that begin the runs of
    length L (none when L = 0)."""
    import numpy as np

    edges = np.flatnonzero(np.diff(np.concatenate(([0], bits, [0])).astype(np.int8)))
    starts, lengths = edges[::2] + 1, edges[1::2] - edges[::2]
    length = int(lengths.max(initial=0))
    return length, starts[lengths == length].tolist() if length else []


def oracle_omega_array(x: int):
    """omega(n) for 0 <= n <= x, by one strided numpy pass per prime of
    the reference mask: the value-space pass the library used to make."""
    import numpy as np

    om = np.zeros(x + 1, dtype=np.int16)
    for prime in np.flatnonzero(oracle_prime_mask(x)):
        om[prime::prime] += 1
    return om


def oracle_omega_histogram(x: int) -> list[int]:
    """hist[k] = #{3 <= n <= x : omega(n) = k}, by the segment pass the
    library used before its walk over Lucy's table.

    Each segment of `numcore._SEGMENT` integers counts the primes
    q <= r = isqrt(x) that divide each n, taken from `oracle_prime_mask`,
    not from the library's own sieve. It starts as a slice of one
    pattern that holds those counts for the smallest primes (`_period`),
    and only the other primes are strided per segment. Each value k is
    counted by `_ones` on the segment translated to a 0/1 mask of k. An
    n <= x has at most one prime factor P > r, and then n = m*P with
    m <= r: for each m, the pi(x // m) - pi(max(r, 2)) such n (the max
    leaves out n = 2 at x = 3) move up one bucket from omega(m).
    """
    import numpy as np

    from apcomposites import numcore
    from apcomposites.numcore import _ones, _period, prime_counts

    inc = bytes(range(1, 256)) + b"\0"  # adds 1 to every byte
    one_of = [bytes(k) + b"\1" + bytes(255 - k) for k in range(16)]  # k -> 1, else 0
    r = math.isqrt(x)
    primes = np.flatnonzero(oracle_prime_mask(r)).tolist()
    hist = [0] * 16
    k, period = _period(primes, x - 2)
    pattern = bytearray(period - 1 + min(numcore._SEGMENT, x - 2))
    for q in primes[:k]:
        pattern[::q] = pattern[::q].translate(inc)
    for lo in range(3, x + 1, numcore._SEGMENT):
        seg = pattern[lo % period : lo % period + min(numcore._SEGMENT, x + 1 - lo)]
        for q in primes[k:]:
            seg[-lo % q :: q] = seg[-lo % q :: q].translate(inc)
        counted = value = 0
        while counted < len(seg):
            hist[value] += (c := _ones(seg.translate(one_of[value])))
            counted, value = counted + c, value + 1
    small = bytearray(r + 1)  # omega(m) for m <= r
    for q in primes:
        small[q::q] = small[q::q].translate(inc)
    pi = prime_counts([max(r, 2), *(x // m for m in range(1, r + 1))])
    for m in range(1, r + 1):
        moved = pi.count(x // m) - pi.count(max(r, 2))
        hist[small[m]] -= moved
        hist[small[m] + 1] += moved
    return hist


def oracle_k_composite(p, k: int, count: int, mode: str = "distinct"):
    """k_composite_witnesses by the step-by-step recursion the library
    used before it built each witness once: every step multiplies the
    last witness by the least prime q = s*a^2 + 1, searched from s = 1,
    that exceeds its greatest prime factor (distinct) or 1 (multiplicity),
    and merges q into a new Factorization."""
    from apcomposites import constructions
    from apcomposites.constructions import KCompositeWitness
    from apcomposites.errors import DomainError, check_digits, first
    from apcomposites.numcore import Factorization, _of_primes, is_prime

    cap = constructions.SEARCH_CAP
    if math.gcd(abs(p.a), abs(p.b)) != 1:
        raise DomainError("k_composite_witnesses requires gcd(a, b) = 1")
    if k < 1 or count < 1:
        raise DomainError("k and count must be >= 1")
    if mode not in ("distinct", "multiplicity"):
        raise DomainError(f"unknown mode {mode!r}")
    check_digits((min(k, 10**9) - 1) * math.log10(p.a * p.a + 1))
    bases, m = [], 0
    while len(bases) < count:
        m = first(lambda n: (v := p.term(n)) > 1 and is_prime(v), m + 1, cap,
                  f"no prime term a*m+b found for m in [{m + 1}, {cap}]")
        bases.append(KCompositeWitness(p, m, p.term(m), _of_primes([p.term(m)]), 1, mode))
    out = []
    for w in bases:
        for _ in range(k - 1):
            a = w.progression.a
            floor = w.proof.gpf if mode == "distinct" else 1
            s = first(lambda s: (q := s * a * a + 1) > floor and is_prime(q), 1, cap,
                      f"no admissible s <= {cap} with s*{a}^2+1 prime")
            q = s * a * a + 1
            n, value = s * a * w.value + w.n, q * w.value
            assert w.progression.term(n) == value
            exponents = dict(w.proof.factors)
            exponents[q] = exponents.get(q, 0) + 1
            proof = Factorization(value, tuple(sorted(exponents.items())))
            w = KCompositeWitness(w.progression, n, value, proof, w.k + 1, mode)
        out.append(w)
    return out


def oracle_lucky(C_max: int) -> list[int]:
    """euler_lucky_search by the full scan the library made before it
    stopped at C = 41, with trial division: every C <= C_max, tested at
    every n < C."""
    return [C for C in range(2, C_max + 1)
            if all(oracle_is_prime(n * n - n + C) for n in range(1, C))]


@pytest.fixture(scope="session")
def oracle_primes_1000():
    return [n for n in range(2, 1001) if oracle_is_prime(n)]


@pytest.fixture(params=[1, 7, 97, 1 << 18])
def segment(request, monkeypatch):
    """numcore's segment size, of the sieve and of the omega oracle, for
    one test: sizes that do and do not divide a progression's step, down to
    one index."""
    monkeypatch.setattr("apcomposites.numcore._SEGMENT", request.param)
    return request.param


@contextlib.contextmanager
def sieve_cap(cap: int):
    """The library's sieve cap set to `cap` inside the block, and restored
    after it."""
    from apcomposites.errors import SIEVE_CAP

    token = SIEVE_CAP.set(cap)
    try:
        yield
    finally:
        SIEVE_CAP.reset(token)


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs; tracemalloc sees every
    bytearray, list and int a call materialises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CliResult = namedtuple("CliResult", "code out err")


def run_cli(argv: list[str], budget_s: float | None = None) -> CliResult:
    """Exit code, stdout and stderr of `apcomposites ARGV`, run in-process
    through `cli.main`; an exception other than its SystemExit propagates.
    Given `budget_s`, a run still going after that many seconds of wall
    time fails the test there, so an overrun cannot hang the suite."""
    from apcomposites import cli

    def overrun(signum, frame):
        pytest.fail(f"{' '.join(argv)!r} ran past its budget of {budget_s} s", pytrace=False)

    out, err = io.StringIO(), io.StringIO()
    if budget_s is not None:
        handler = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    except SystemExit as exc:
        return CliResult(exc.code, out.getvalue(), err.getvalue())
    finally:
        if budget_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
    raise AssertionError("cli.main returned without SystemExit")
