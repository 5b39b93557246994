import tracemalloc

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


def oracle_omega_array(x: int):
    """omega(n) for 0 <= n <= x, by one strided numpy pass per prime of a
    whole-range sieve: the value-space pass the library used to make."""
    import numpy as np

    from apcomposites.numcore import sieve

    primes = np.flatnonzero(sieve(x).membership)
    om = np.zeros(x + 1, dtype=np.int16)
    for prime in primes:
        om[prime::prime] += 1
    return om


@pytest.fixture(scope="session")
def oracle_primes_1000():
    return [n for n in range(2, 1001) if oracle_is_prime(n)]


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs; numpy reports its buffers to
    tracemalloc, so this covers the arrays a call materialises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
