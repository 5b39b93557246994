import contextlib
import io
import math
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


@pytest.fixture(scope="session")
def oracle_primes_1000():
    return [n for n in range(2, 1001) if oracle_is_prime(n)]


@pytest.fixture(params=[1, 7, 97, 1 << 18])
def segment(request, monkeypatch):
    """numcore's segment size, of the sieve and of the omega pass, for one
    test: sizes that do and do not divide a progression's step, down to
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


def run_cli(argv: list[str]) -> CliResult:
    """Exit code, stdout and stderr of `apcomposites ARGV`, run in-process
    through `cli.main`; an exception other than its SystemExit propagates."""
    from apcomposites import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            return CliResult(exc.code, out.getvalue(), err.getvalue())
    raise AssertionError("cli.main returned without SystemExit")
