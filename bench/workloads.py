"""Seeded job lists for the three benchmark workloads.

A job is one ``apcomposites`` command line plus the exit code it must
end with. The program under test sees only the argv; everything here is
derived from ``random.Random(f"{workload}:{seed}")``, so one seed always
gives the same jobs.

Every workload has JOBS_PER_PASS jobs. Sizes are drawn by stratified
sampling (one draw per equal-width stratum of the range, then shuffled),
so two seeds give different inputs of nearly the same total cost; that
keeps ``wall_s`` comparable across seeds. Each workload also carries one
fixed *anchor* job at the largest size it allows, which pins
``peak_rss_mb`` to the capacity cap instead of to the luck of the draw,
and two documented refusals with their expected exit codes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The CLI's default --max-sieve; every sieve-backed job stays at or below it.
CAP = 50_000_000
JOBS_PER_PASS = 40

# Progressions whose first run of 50 consecutive composites starts below
# n ~ 2e5, so `consecutive` never turns into a multi-second scan (a = 6,
# N = 50 scans ~2e6 indices, ~14 s). Odd steps alternate parity, a = 1
# and a = 2 are the Miller-Rabin-heavy cases.
CONSECUTIVE_STEPS = (1, 2, 3, 5, 7, 9, 11)

# x^t + y^t = z^t with a rational real root t (so `ratscan` has a hit to find).
RATIONAL_ROOT_TRIPLES = ((3, 4, 5, 2), (5, 12, 13, 2), (8, 15, 17, 2), (1, 1, 2, 1))


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect_rc: int = 0


def _strata(rng: random.Random, k: int) -> list[float]:
    """k uniforms in [0, 1), one in each of k equal strata, shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _coprime_residue(rng: random.Random, a: int) -> int:
    return rng.choice([r for r in range(a) if math.gcd(a, r) == 1])


def _job(*argv, expect_rc: int = 0) -> Job:
    return Job(tuple(str(x) for x in argv), expect_rc)


def count_sweeps(rng: random.Random) -> list[Job]:
    """One sieve build per process, then many pi(x) / pi_{a,b}(x) queries."""
    jobs = [_job("count", "--x", CAP)]
    for u in _strata(rng, 8):
        jobs.append(_job("count", "--x", _log_uniform(u, 1e6, CAP)))
    for u in _strata(rng, 8):
        a = rng.randint(2, 12)
        jobs.append(_job("count", "--x", _log_uniform(u, 1e6, CAP),
                         "--a", a, "--b", _coprime_residue(rng, a)))
    for u in _strata(rng, 5):
        jobs.append(_job("density", "--x", _log_uniform(u, 1e6, CAP)))
    for u in _strata(rng, 5):
        hi = _log_uniform(u, 1e6, CAP)
        jobs.append(_job("sweep", "density", "--x", f"{rng.randint(2, 1000)}..{hi}",
                         "--geometric", rng.randint(2, 10)))
    for u in _strata(rng, 4):
        jobs.append(_job("sweep", "dyadic", "--k", f"{rng.randint(2, 10)}..{20 + int(u * 6)}"))
    for u in _strata(rng, 3):
        jobs.append(_job("sweep", "pow4", "--m", f"{rng.randint(1, 5)}..{10 + int(u * 3)}"))
    for u in _strata(rng, 4):
        lo, hi = rng.randint(2, 100), _log_uniform(u, 5e5, CAP // 2)
        step = max(1, (hi - lo) // rng.randint(50, 200))
        jobs.append(_job("sweep", "binom", "--n", f"{lo}..{hi}", "--step", step))
    jobs.append(_job("count", "--x", rng.randint(CAP + 1, 2 * CAP), expect_rc=3))
    jobs.append(_job("density", "--x", rng.randint(0, 1), expect_rc=1))
    return jobs


def term_scans(rng: random.Random) -> list[Job]:
    """The same sieve, consumed through int64 term arrays and the omega pass."""
    jobs = [_job("ek", "--x", 10_000_000)]
    for u in _strata(rng, 12):
        # `runs` prints every run of the maximal length. Unless 6 | a, a
        # prime 2 or 3 divides every second or third term, the maximal
        # length is 1 or 2, and the output lists ~1e5 runs per 1e6 indices
        # (MBs of JSON, swamping the scan this workload is about).
        a = rng.choice((6, 12))
        b = rng.choice([r for r in range(-a + 1, a) if math.gcd(a, r) == 1])
        n_max = _log_uniform(u, 1e5, min(4_000_000, (CAP - a) // a))
        jobs.append(_job("runs", "--a", a, "--b", b, "--n-max", n_max))
    for u in _strata(rng, 8):
        a = rng.randint(1, 10)
        jobs.append(_job("sweep", "runs", "--a", f"{a}..{a + rng.randint(1, 2)}",
                         "--b", rng.choice((1, -1)), "--n-max", _log_uniform(u, 1e5, 5e5)))
    for u in _strata(rng, 11):
        a = rng.randint(1, 12)
        b = rng.randint(-a, a)
        hi = _log_uniform(u, 1e5, min(4_000_000, (CAP - abs(b)) // a - 1))
        jobs.append(_job("sweep", "pdensity", "--a", a, "--b", b,
                         "--x", f"{rng.randint(1, 100)}..{hi}",
                         "--geometric", rng.randint(2, 10)))
    for u in _strata(rng, 6):
        jobs.append(_job("ek", "--x", _log_uniform(u, 1e5, 5e6)))
    a = rng.choice((6, 12))
    jobs.append(_job("runs", "--a", a, "--b", 1, "--n-max",
                     CAP // a + rng.randint(1, 1_000_000), expect_rc=3))
    jobs.append(_job("ek", "--x", rng.randint(1, 2), expect_rc=1))
    return jobs


def _real_root(x: int, y: int, z: int) -> float:
    """Root of (x/z)^t + (y/z)^t = 1, which is strictly decreasing in t."""
    lo, hi = -64.0, 64.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if (x / z) ** mid + (y / z) ** mid > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def witness_explore(rng: random.Random) -> list[Job]:
    """Per-integer exact arithmetic: Miller-Rabin, trial division, mpmath."""
    jobs = [_job("factorial", "--m", 200)]
    for u in _strata(rng, 3):
        b = rng.choice((1, -1)) * rng.randint(2, 12)
        jobs.append(_job("witness", "multiple", "--a", rng.randint(1, 12), "--b", b,
                         "--m", _log_uniform(u, 1, 1e13)))
    for u in _strata(rng, 3):
        a, b, m = rng.randint(1, 12), rng.choice((1, -1)), _log_uniform(u, 1, 1e10)
        if a * m + b <= 1:
            m += 2
        jobs.append(_job("witness", "unit", "--a", a, "--b", b, "--m", m))
    for u in _strata(rng, 2):
        jobs.append(_job("witness", "power", "--a", rng.randint(1, 20),
                         "--sign", rng.choice(("+1", "-1")), "--k", 1 + int(u * 30)))
    for u in _strata(rng, 3):
        jobs.append(_job("factorial", "--m", _log_uniform(u, 10, 200)))
    for u in _strata(rng, 5):
        a = rng.choice(CONSECUTIVE_STEPS)
        jobs.append(_job("consecutive", "--a", a, "--b", _coprime_residue(rng, a),
                         "--count", 20 + int(u * 31)))
    for u in _strata(rng, 4):
        a = rng.randint(2, 10)
        jobs.append(_job("kcomposite", "--a", a, "--b", _coprime_residue(rng, a),
                         "--k", 2 + int(u * 3), "--count", rng.randint(3, 8),
                         "--mode", rng.choice(("distinct", "multiplicity"))))
    for u in _strata(rng, 3):
        jobs.append(_job("twin3", "--count", rng.randint(10, 100),
                         "--k-max", _log_uniform(u, 1e3, 1e5)))
    for u in _strata(rng, 3):
        degree = 1 + int(u * 3)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        jobs.append(_job("poly", "--coeffs", ",".join(map(str, coeffs)),
                         "--count", rng.randint(10, 60)))
    for u in _strata(rng, 3):
        jobs.append(_job("lucky", "--max", _log_uniform(u, 50, 2000)))
    for u in _strata(rng, 3):
        jobs.append(_job("streak", "--c", _log_uniform(u, 1, 1e6)))
    for u in _strata(rng, 2):
        z = rng.randint(3, 30)
        x, y = rng.randint(1, z - 1), rng.randint(1, z - 1)
        t = _real_root(x, y, z)
        lo, hi = t - rng.uniform(0.05, 0.95), t + rng.uniform(0.05, 0.95)
        jobs.append(_job("fermatreal", "--x", x, "--y", y, "--z", z,
                         "--bracket", f"{lo:.3f},{hi:.3f}",
                         "--tol", f"1e-{8 + int(u * 5)}"))
    for u in _strata(rng, 3):
        x, y, z, t = rng.choice(RATIONAL_ROOT_TRIPLES)
        lo = t - rng.uniform(0.2, 0.8)
        jobs.append(_job("ratscan", "--x", x, "--y", y, "--z", z,
                         "--bracket", f"{lo:.3f},{lo + 1:.3f}",
                         "--q-max", 50 + int(u * 101)))
    a = rng.randint(1, 12)
    jobs.append(_job("witness", "unit", "--a", a, "--b", rng.randint(2, 12), "--m", 1,
                     expect_rc=1))
    jobs.append(_job("factorial", "--m", rng.randint(0, 2), expect_rc=1))
    return jobs


WORKLOADS = {
    "count_sweeps": count_sweeps,
    "term_scans": term_scans,
    "witness_explore": witness_explore,
}


def generate(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    if len(jobs) != JOBS_PER_PASS:
        raise AssertionError(f"{workload}: {len(jobs)} jobs, expected {JOBS_PER_PASS}")
    rng.shuffle(jobs)
    return jobs
