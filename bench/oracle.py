"""Independent checks of every benchmark job's stdout.

Nothing here imports apcomposites. Prime counts and prime masks come
from a plain numpy sieve written for this file; single primality tests
of large values, such as factors and run neighbours, use
``sympy.isprime``; root checks re-evaluate x^t + y^t - z^t with mpmath
at 50 digits. The paper's inequalities are theorems, so every ``holds``
and ``within_bound`` must be true.

``check(job, rc, stdout, oracle)`` returns None for a correct job and a
one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from statistics import NormalDist

import mpmath as mp
import numpy as np
from sympy import isprime

from workloads import CAP, RATIONAL_ROOT_TRIPLES, Job


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got: float, want: float, rel: float = 1e-12) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-300)


class PrimeOracle:
    """Prime mask over [0, limit] and omega(n) over [0, omega_limit], grown on demand."""

    def __init__(self):
        self.limit = -1
        self.mask = np.zeros(0, dtype=bool)
        self.primes = np.zeros(0, dtype=np.int64)
        self.omega_limit = -1
        self.omega = np.zeros(0, dtype=np.int8)

    def _grow(self, n: int) -> None:
        if n <= self.limit:
            return
        limit = max(n, min(2 * self.limit, CAP), 1 << 16)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        mask[4::2] = False
        for p in range(3, math.isqrt(limit) + 1, 2):
            if mask[p]:
                mask[p * p :: 2 * p] = False
        self.limit, self.mask = limit, mask
        self.primes = np.flatnonzero(mask)

    def pi(self, x: int) -> int:
        self._grow(x)
        return int(np.searchsorted(self.primes, x, side="right"))

    def pi_ab(self, x: int, a: int, b: int) -> int:
        n = self.pi(x)  # grows the sieve before self.primes is read
        head = self.primes[:n]
        return int(np.count_nonzero(head % a == b % a))

    def is_prime_array(self, values: np.ndarray) -> np.ndarray:
        self._grow(int(values.max()))
        return self.mask[values]

    def omega_counts(self, x: int) -> np.ndarray:
        """How many n in [3, x] have omega(n) = k, for each k."""
        if x > self.omega_limit:
            n = self.pi(x)
            omega = np.zeros(x + 1, dtype=np.int8)  # omega(n) <= 8 below 2*3*5*...*23
            for p in self.primes[:n].tolist():
                omega[p::p] += 1
            self.omega_limit, self.omega = x, omega
        return np.bincount(self.omega[3 : x + 1])


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    i = next(i for i, tok in enumerate(argv) if tok.startswith("--"))
    return {argv[k][2:].replace("-", "_"): argv[k + 1] for k in range(i, len(argv), 2)}


def _range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..")
    return int(lo), int(hi)


def _pair(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _geometric(lo: int, hi: int, g: int) -> list[int]:
    xs = []
    while lo <= hi:
        xs.append(lo)
        lo *= g
    return xs


def _sweep(results: list, n_rows: int) -> tuple[list, dict]:
    _expect(len(results) == n_rows + 1, f"{len(results) - 1} rows, expected {n_rows}")
    return results[:-1], results[-1]["summary"]


def _proof(proof: dict, value: int) -> tuple[int, int] | None:
    """Checks a compositeness proof of |value|; (omega, Omega) if factored."""
    v = abs(value)
    _expect(proof["value"] == v, "proof is for another value")
    if proof["type"] == "divisor_pair":
        d, c = proof["d"], proof["cofactor"]
        _expect(d > 1 and c > 1 and d * c == v, f"bad divisor pair for {v}")
        return None
    _expect(proof["type"] == "factorization", "unknown proof type")
    prod, prev = 1, 1
    for p, e in proof["factors"]:
        _expect(p > prev and e >= 1 and isprime(p), f"bad factor {p}^{e} of {v}")
        prod, prev = prod * p**e, p
    _expect(prod == v, f"factors of {v} multiply to {prod}")
    return len(proof["factors"]), sum(e for _, e in proof["factors"])


def _witness(w: dict, a: int, b: int, tag: str) -> None:
    _expect((w["a"], w["b"]) == (a, b) and w["tag"] == tag, "wrong progression or tag")
    _expect(w["value"] == a * w["n"] + b, f"value {w['value']} != {a}*{w['n']}+{b}")
    counts = _proof(w["proof"], w["value"])
    _expect(counts is None or counts[1] >= 2, f"{w['value']} proven prime, not composite")


def _runs_of(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based starts and lengths of the maximal runs of True in mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    return edges[0::2] + 1, edges[1::2] - edges[0::2]


def _max_runs(mask: np.ndarray) -> tuple[int, list[int]]:
    """Longest run of True in mask and the starts of all runs that long."""
    starts, lengths = _runs_of(mask)
    if len(starts) == 0:
        return 0, []
    best = int(lengths.max())
    return best, [int(s) for s in starts[lengths == best]]


def _terms(a: int, b: int, n_max: int) -> np.ndarray:
    return np.abs(a * np.arange(1, n_max + 1, dtype=np.int64) + b)


def _run_mask(orc: PrimeOracle, a: int, b: int, n_max: int) -> np.ndarray:
    return orc.is_prime_array(_terms(a, b, n_max))


def _density_bound(x: int) -> float:
    return 1 / x + 4 / math.sqrt(x) + 8 / (math.log(x) / math.log(4))


def _fermat(x: int, y: int, z: int):
    return lambda t: mp.power(x, t) + mp.power(y, t) - mp.power(z, t)


# --- one checker per command ------------------------------------------------


def _count(o, results, orc):
    (res,) = results
    x = int(o["x"])
    if "a" in o:
        _expect(res["pi_ab"] == orc.pi_ab(x, int(o["a"]), int(o["b"])), "pi_{a,b}(x) wrong")
    else:
        _expect(res["pi"] == orc.pi(x), "pi(x) wrong")


def _density(o, results, orc):
    (res,) = results
    x = int(o["x"])
    pi = orc.pi(x)
    _expect(res["pi"] == pi, "pi(x) wrong")
    _expect(Fraction(res["ratio"]["num"], res["ratio"]["den"]) == Fraction(pi, x), "ratio wrong")
    _expect(_close(res["bound"], _density_bound(x)), "bound wrong")
    _expect(res["holds"] is True, "density bound fails")


def _sweep_density(o, results, orc):
    xs = _geometric(*_range(o["x"]), int(o["geometric"]))
    rows, summary = _sweep(results, len(xs))
    for x, row in zip(xs, rows):
        pi = orc.pi(x)
        _expect(row["x"] == x and row["pi"] == pi, f"pi({x}) wrong")
        _expect(_close(row["ratio"], pi / x) and _close(row["bound"], _density_bound(x)),
                f"ratio or bound wrong at {x}")
        _expect(row["holds"] is True, f"density bound fails at {x}")
    _expect(summary == {"all_holds": True, "rows": len(xs)}, "bad summary")


def _bound_rows(results, params, lhs, rhs, extra=lambda p: {}):
    rows, summary = _sweep(results, len(params))
    for p, row in zip(params, rows):
        _expect(row["param"] == p and row["lhs"] == lhs(p), f"lhs wrong at {p}")
        _expect(_close(row["rhs"], rhs(p)), f"rhs wrong at {p}")
        _expect(row["holds"] is True, f"bound fails at {p}")
        for key, want in extra(p).items():
            _expect(row[key] == want, f"{key} wrong at {p}")
    _expect(summary == {"all_holds": True, "rows": len(params)}, "bad summary")


def _sweep_dyadic(o, results, orc):
    lo, hi = _range(o["k"])
    _bound_rows(results, range(lo, hi + 1),
                lambda k: float(orc.pi(2**k) - orc.pi(2 ** (k - 1))),
                lambda k: 2**k / (k - 1))


def _sweep_pow4(o, results, orc):
    lo, hi = _range(o["m"])
    _bound_rows(results, range(lo, hi + 1), lambda m: float(orc.pi(4**m)),
                lambda m: 1 + 2 ** (m + 1) + 2 ** (2 * m + 1) / m)


def _sweep_binom(o, results, orc):
    lo, hi = _range(o["n"])
    gap = lambda n: orc.pi(2 * n) - orc.pi(n)  # noqa: E731
    _bound_rows(results, range(lo, hi + 1, int(o["step"])),
                lambda n: gap(n) * math.log(n), lambda n: n * math.log(4),
                lambda n: {"gap": float(gap(n))})


def _runs(o, results, orc):
    (res,) = results
    a, b, n_max = int(o["a"]), int(o["b"]), int(o["n_max"])
    best, starts = _max_runs(_run_mask(orc, a, b, n_max))
    _expect(res["n_max"] == n_max and res["max_length"] == best, "max run length wrong")
    want = [{"start_n": s, "length": best,
             "values": [a * n + b for n in range(s, s + best)],
             "truncated": s + best == n_max + 1} for s in starts]
    _expect(res["runs"] == want, "maximal runs wrong")


def _sweep_runs(o, results, orc):
    lo, hi = _range(o["a"])
    b, n_max = int(o["b"]), int(o["n_max"])
    rows, summary = _sweep(results, hi - lo + 1)
    for a, row in zip(range(lo, hi + 1), rows):
        best, _ = _max_runs(_run_mask(orc, a, b, n_max))
        _expect(row == {"a": a, "b": b, "max_length": best, "a_squared": a * a,
                        "within_bound": True}, f"row for a={a} wrong")
    _expect(summary == {"all_within_bound": True, "rows": hi - lo + 1}, "bad summary")


def _sweep_pdensity(o, results, orc):
    a, b = int(o["a"]), int(o["b"])
    lo, hi = _range(o["x"])
    xs = _geometric(lo, hi, int(o["geometric"]))
    rows, summary = _sweep(results, len(xs))
    v = _terms(a, b, xs[-1])
    composite = np.cumsum((v > 1) & ~orc.is_prime_array(v))
    for x, row in zip(xs, rows):
        want = Fraction(int(composite[x - 1]), x)
        _expect(row["x"] == x and Fraction(row["num"], row["den"]) == want
                and row["density"] == float(want), f"density wrong at x={x}")
    _expect(summary == {"rows": len(xs), "final_density": rows[-1]["density"]}, "bad summary")


def _ek(o, results, orc):
    (res,) = results
    x = int(o["x"])
    # sum_{3 <= n <= x} omega(n) = sum_{p <= x} floor(x/p) - omega(2)
    n = orc.pi(x)
    total = int((x // orc.primes[:n]).sum()) - 1
    _expect(res["sample_count"] == x - 2, "sample count wrong")
    _expect(_close(res["mean_omega"], total / (x - 2)), "mean omega wrong")
    lo, hi = _pair(o.get("interval", "-1,1"))
    _expect(_close(res["gaussian_mass"], NormalDist().cdf(hi) - NormalDist().cdf(lo)),
            "Gaussian mass of the interval wrong")
    # n is in the sample when (omega(n) - lllog x) / sqrt(lllog x) lies in the interval
    llx = math.log(math.log(x))
    inside = sum(int(c) for k, c in enumerate(orc.omega_counts(x))
                 if lo <= (k - llx) / math.sqrt(llx) <= hi)
    _expect(res["sample_fraction"] == inside / (x - 2), "sample fraction wrong")


def _witness_multiple(o, results, orc):
    (w,) = results
    a, b, m = int(o["a"]), int(o["b"]), int(o["m"])
    _expect(w["n"] == b * m, "n != b*m")
    _witness(w, a, b, "multiple_of_b")


def _witness_unit(o, results, orc):
    (w,) = results
    a, b, m = int(o["a"]), int(o["b"]), int(o["m"])
    _expect(w["n"] == a * (a * m + b) + m, "n != a*(a*m+b)+m")
    _witness(w, a, b, "unit_b")


def _witness_power(o, results, orc):
    (w,) = results
    a, sign, k = int(o["a"]), int(o["sign"]), int(o["k"])
    _expect(w["n"] == 3 ** (2 * k + 1) * a ** (2 * k), "n != 3^(2k+1) a^(2k)")
    _witness(w, a, sign, "power")


def _factorial(o, results, orc):
    (ws,) = results
    m = int(o["m"])
    _expect([w["value"] for w in ws] == [math.factorial(m) + j for j in range(2, m + 1)],
            "values are not m!+2 .. m!+m")
    for w in ws:
        _witness(w, 1, 0, "factorial")


def _consecutive(o, results, orc):
    (res,) = results
    a, b, count = int(o["a"]), int(o["b"]), int(o["count"])
    start, ws = res["start_n"], res["witnesses"]
    _expect([w["n"] for w in ws] == list(range(start, start + count)), "indices not consecutive")
    for w in ws:
        _witness(w, a, b, "consecutive")
    _expect(res["factorial_m_bound"] == a * count + abs(b) + 2, "factorial bound wrong")
    v = _terms(a, b, start + count - 1)
    starts, lengths = _runs_of((v > 1) & ~orc.is_prime_array(v))
    first = int(starts[np.argmax(lengths >= count)])
    _expect(first == start, f"an earlier run of {count} composites starts at n={first}")


def _kcomposite(o, results, orc):
    (ws,) = results
    a, b, k, mode = int(o["a"]), int(o["b"]), int(o["k"]), o["mode"]
    _expect(len(ws) == int(o["count"]), "wrong number of witnesses")
    _expect(len({w["value"] for w in ws}) == len(ws), "repeated witness")
    for w in ws:
        _expect((w["a"], w["b"], w["k"], w["mode"]) == (a, b, k, mode), "wrong header")
        _expect(w["value"] == a * w["n"] + b, "value != a*n+b")
        counts = _proof(w["proof"], w["value"])
        _expect(counts is not None and counts[mode == "multiplicity"] == k,
                f"{w['value']} does not have {k} prime factors")


def _twin3(o, results, orc):
    (res,) = results
    count, k_max = int(o["count"]), int(o["k_max"])
    twins = (k for k in range(2, k_max + 1) if isprime(2 * k - 1) and isprime(2 * k + 1))
    ks = list(itertools.islice(twins, count))
    ws = res["witnesses"]
    _expect(res["shortfall"] is (len(ks) < count), "shortfall flag wrong")
    _expect([w["n"] for w in ws] == [5 * k * k - 2 for k in ks], "not the first twin pairs")
    for w in ws:
        _expect((w["a"], w["b"], w["k"], w["mode"]) == (4, 3, 3, "multiplicity"), "wrong header")
        _expect(w["value"] == 4 * w["n"] + 3, "value != 4n+3")
        _expect(_proof(w["proof"], w["value"])[1] == 3, "not three prime factors")


def _poly(o, results, orc):
    (recs,) = results
    coeffs = [int(c) for c in o["coeffs"].split(",")]
    f = lambda t: sum(c * t**i for i, c in enumerate(coeffs))  # noqa: E731
    k = 0
    while f(k) <= 1:
        k += 1
    d = f(k)
    _expect(len(recs) == int(o["count"]), "wrong number of records")
    js = [r["j"] for r in recs]
    _expect(js == sorted(set(js)) and js[0] >= 1, "j not increasing")
    for r in recs:
        _expect(r["k"] == k and r["divisor"] == d and r["index"] == k + r["j"] * d,
                "wrong k, divisor or index")
        _expect(r["value"] == f(r["index"]) and r["value"] % d == 0 and r["value"] > d > 1,
                f"f({r['index']}) is not a proper multiple of f(k)")


def _lucky(o, results, orc):
    (res,) = results
    want = [c for c in (2, 3, 5, 11, 17, 41) if c <= int(o["max"])]
    _expect(res["lucky"] == want, "lucky numbers wrong")


def _streak(o, results, orc):
    (res,) = results
    c, n = int(o["c"]), res["length"]
    _expect(all(isprime(i * i + i + c) for i in range(n)), "streak contains a composite")
    _expect(res["first_failure_n"] == n and res["first_failure_value"] == n * n + n + c
            and not isprime(n * n + n + c), "first failure wrong")


def _fermatreal(o, results, orc):
    (res,) = results
    x, y, z = int(o["x"]), int(o["y"]), int(o["z"])
    lo, hi = _pair(o["bracket"])
    tol = float(o["tol"])
    a, b = res["refined_bracket"]
    with mp.workdps(50):
        f = _fermat(x, y, z)
        _expect(res["iterations"] == math.ceil(math.log2((hi - lo) / tol)), "iteration count wrong")
        _expect(lo <= a <= res["s"] <= b <= hi and b - a <= tol * (1 + 1e-9), "bracket wrong")
        _expect(mp.sign(f(a)) * mp.sign(f(b)) <= 0, "refined bracket has no sign change")


def _ratscan(o, results, orc):
    (res,) = results
    x, y, z = int(o["x"]), int(o["y"]), int(o["z"])
    lo, hi = _pair(o["bracket"])
    hits = [Fraction(h["p"], h["q"]) for h in res["hits"]]
    _expect(hits == sorted(set(hits)), "hits not sorted and unique")
    with mp.workdps(50):
        f = _fermat(x, y, z)
        for h, raw in zip(hits, res["hits"]):
            _expect(h.denominator == raw["q"] <= int(o["q_max"]) and lo < h < hi,
                    f"hit {h} outside the scan")
            _expect(abs(f(mp.mpf(h.numerator) / h.denominator)) < 1e-9, f"|f({h})| >= tol")
    for tx, ty, tz, t in RATIONAL_ROOT_TRIPLES:
        if (tx, ty, tz) == (x, y, z) and lo < t < hi:
            _expect(Fraction(t) in hits, f"exact root {t} missed")


CHECKS = {
    "count": _count,
    "density": _density,
    "sweep density": _sweep_density,
    "sweep dyadic": _sweep_dyadic,
    "sweep pow4": _sweep_pow4,
    "sweep binom": _sweep_binom,
    "runs": _runs,
    "sweep runs": _sweep_runs,
    "sweep pdensity": _sweep_pdensity,
    "ek": _ek,
    "witness multiple": _witness_multiple,
    "witness unit": _witness_unit,
    "witness power": _witness_power,
    "factorial": _factorial,
    "consecutive": _consecutive,
    "kcomposite": _kcomposite,
    "twin3": _twin3,
    "poly": _poly,
    "lucky": _lucky,
    "streak": _streak,
    "fermatreal": _fermatreal,
    "ratscan": _ratscan,
}


def command_of(job: Job) -> str:
    return " ".join(job.argv[:2]) if job.argv[0] in ("sweep", "witness") else job.argv[0]


def check(job: Job, rc: int, stdout: bytes, oracle: PrimeOracle) -> str | None:
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}"
    if job.expect_rc != 0:
        return "refusal wrote to stdout" if stdout.strip() else None
    command = command_of(job)
    try:
        records = [json.loads(line) for line in stdout.decode().splitlines()]
        _expect(len(records) > 0, "no output")
        for r in records:
            _expect(r["schema_version"] == 1 and r["command"] == command, "bad record envelope")
        CHECKS[command](_options(job.argv), [r["result"] for r in records], oracle)
    except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
