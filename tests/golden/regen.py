"""Write the CLI golden files: exit code, stdout and stderr of fixed
argv lists, each with a wall-time budget.

    PYTHONPATH=src python tests/golden/regen.py

Each group below becomes ``tests/golden/<group>.json``, a list of
``{"argv", "exit_code", "stdout", "stderr", "budget_s"}`` records that
``tests/test_golden.py`` replays in-process, failing a run that is still
going after ``budget_s`` seconds. The budget is ``BUDGET_S`` unless
``BUDGETS`` names a tighter one. Regenerate only for an intended change
of output, and review the diff: the files are the CLI's behavioural
contract. Inputs that crash with a traceback do not belong here.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from apcomposites.cli import COMMANDS  # noqa: E402
from conftest import run_cli  # noqa: E402


BUDGET_S = 10
# Searches whose end the mathematics decides, and a refusal made as each
# value is built: each must end long before the default budget.
BUDGETS = {
    "lucky --max 1e18": 2,
    "kcomposite --a -2 --b 31 --k 1 --count 10": 1,
    "poly --coeffs 1e300,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1 --count 20000": 1,
}


def _argvs(*lines: str) -> list[list[str]]:
    return [shlex.split(line) for line in lines]


def _help_pages() -> list[list[str]]:
    """`--help` of the root and of every command path beneath it."""
    return [[*path.split(), "--help"] for path in sorted(COMMANDS)]


def _both_formats(*lines: str) -> list[list[str]]:
    return [argv + fmt for argv in _argvs(*lines)
            for fmt in ([], ["--format", "records"], ["--format", "csv"])]


GROUPS = {
    "readme": _argvs(
        "witness unit --a 2 --b 1 --m 3",
        "witness power --a 2 --sign -1 --k 1",
        "factorial --m 5",
        "kcomposite --a 4 --b 1 --k 3 --count 5 --mode distinct",
        "twin3 --count 10 --k-max 1000",
        "lucky --max 100",
        "streak --c 41",
        "fermatreal --x 4 --y 5 --z 6 --bracket 2,3 --tol 1e-12",
        "ratscan --x 4 --y 5 --z 6 --q-max 50",
        "sweep density --x 10..1e7 --geometric 10",
        "sweep dyadic --k 2..22",
        "sweep runs --a 1..6 --b 1 --n-max 1e5",
        "ek --x 1e6 --interval -1,1",
        "binom --n 1000",
        "sweep binom --n 2..1e6 --step 1000",
        "dyadic --k 20",
        "pow4 --m 10",
        "sweep pow4 --m 1..12",
        "density --x 1e6",
    ),
    "commands": _argvs(
        "sieve --limit 100",
        "sieve --limit 1e6",
        "sieve --limit 2",
        "count --x 1e4",
        "count --x 1 ",
        "count --x 1000 --a 4 --b 3",
        "count --x 1000 --a 4",
        "count --x 99999 --a 10 --b -3",
        # Either side of 13**4, where the 2*3*5*7*11*13 wheel first
        # applies to the point count's pre-sieve.
        "count --x 28560",
        "count --x 28561",
        # Near 64**4 the pre-sieve's 64*sqrt(x) cap takes over from
        # x**(3/4): it first decides the sieve at 16769024, and either
        # side of 64**4 both give the same.
        "count --x 16769023",
        "count --x 16769024",
        "count --x 16777215",
        "count --x 16777216",
        "count --x 5e7",
        "density --x 49384156",
        "sweep dyadic --k 2..25",
        # Point counts far past the default cap.
        "--max-sieve 1e9 count --x 1e9",
        "--max-sieve 1e10 count --x 1e10",
        # 5 divides a and b: 5 is the one prime term.
        "count --x 1000 --a 10 --b 5",
        "witness multiple --a 3 --b 2 --m 5",
        "witness multiple --a 4 --b -6 --m 2",
        "witness multiple --a 5 --b 3 --m 1e12",
        "witness unit --a 7 --b -1 --m 4",
        "witness unit --a 12 --b 1 --m 1e9",
        "witness power --a 3 --sign +1 --k 2",
        "witness power --a 2 --sign 1 --k 3",
        "factorial --m 2",
        "factorial --m 12",
        "consecutive --a 2 --b 1 --count 5",
        "consecutive --a 3 --b 1 --count 8",
        "consecutive --a 6 --b 1 --count 50",
        # Terms -7, -4, -1, 2, 5, 8: the unit -1 breaks a run.
        "consecutive --a 3 --b -10 --count 5",
        "kcomposite --a 5 --b 3 --k 3 --count 5",
        "kcomposite --a 4 --b 1 --k 2 --count 3 --mode multiplicity",
        "poly --coeffs 1,1,1 --count 3",
        "poly --coeffs 41,-1,1 --count 2",
        # The trailing zero coefficient is dropped: f = 1 + x.
        "poly --coeffs 1,1,0 --count 2",
        "poly --coeffs 1e3,1 --count 1",
        "twin3 --count 3",
        "density --x 2",
        "density --x 1000",
        "density --x 1e6",
        "binom --n 2",
        "binom --n 5",
        "binom --n 1000",
        "dyadic --k 2",
        "dyadic --k 4",
        "dyadic --k 20",
        "pow4 --m 1",
        "pow4 --m 3",
        "pow4 --m 10",
        "runs --a 6 --b 1 --n-max 1e4",
        "runs --a 2 --b 1 --n-max 1000",
        "runs --a 1 --b 0 --n-max 100",
        # 5 divides a and b: the term 5 alone is prime.
        "runs --a 10 --b -5 --n-max 50",
        "ek --x 3",
        "ek --x 1e4",
        "ek --x 1e5 --interval -2,0.5",
        "ek --x 5e7",
        # 3163**2, where 3163 moves between m's primes and the large prime.
        "ek --x 10004569",
        # The edges of the table the walk reads: either side of 13**4, where
        # the wheel starts; either side of 16769024, where the 64*sqrt(x)
        # cap on the pre-sieve takes over; and 64**4.
        "ek --x 28560",
        "ek --x 28561",
        "ek --x 16769023",
        "ek --x 16769024",
        "ek --x 16777216",
        # omega read off Lucy's table in O(x^(3/4)), far past the default cap.
        "--max-sieve 1e9 ek --x 1e9",
        "lucky --max 1000",
        # Euler's lucky numbers end at 41, whatever --max is.
        "lucky --max 1e18",
        "streak --c 17",
        "streak --c 1",
        "fermatreal --x 4 --y 5 --z 6",
        "fermatreal --x 3 --y 4 --z 5 --bracket 1,3 --tol 1e-6",
        "ratscan --x 3 --y 4 --z 5 --bracket 1,3 --q-max 10",
        "ratscan --x 1 --y 1 --z 2 --bracket 0.5,1.5 --q-max 5 --tol 1e-6",
        "ratscan --x 5 --y 12 --z 13 --bracket 1.3,2.3 --q-max 1e4",
        # The root t = 2 at the lower bracket end.
        "ratscan --x 3 --y 4 --z 5 --bracket 2,1e308 --q-max 10",
        "ratscan --x 3 --y 4 --z 5 --bracket 2,3 --q-max 200",
        # Roots strictly inside a bracket whose float end times q rounds
        # onto the root's p.
        "ratscan --x 1 --y 1 --z 8 --bracket 0.3333333333333333,1 --q-max 10",
        "ratscan --x 1 --y 1 --z 1024 --bracket 0.05,0.1 --q-max 20",
        "ratscan --x 27 --y 64 --z 125 --bracket 0.6666666666666666,1 --q-max 5",
        # psi_12, a strong pseudoprime to the 12 prime bases up to 37.
        "streak --c 318665857834031151167461",
        "kcomposite --a 1 --b 318665857834031151167460 --k 1",
    ),
    "sweeps": _both_formats(
        "sweep density --x 10..1e6 --geometric 10",
        "sweep density --x 2..1000 --geometric 3",
        "sweep density --x 1000..1000",
        "sweep dyadic --k 2..20",
        "sweep dyadic --k 5..5",
        "sweep binom --n 2..1000 --step 7",
        "sweep binom --n 2..50",
        "sweep pow4 --m 1..8",
        "sweep runs --a 1..6 --b 1 --n-max 1e4",
        "sweep runs --a 3..4 --b -1 --n-max 500",
        "sweep pdensity --a 3 --b 2 --x 1..1e5 --geometric 10",
        "sweep pdensity --a 1 --b 0 --x 5..500 --geometric 2",
        # 3 divides a and b: for n >= 1 the one prime term is 3, and no term is a unit.
        "sweep pdensity --a 6 --b -3 --x 1..1000 --geometric 10",
        "sweep runs --a 1..3 --b -7 --n-max 20",
        # Scans of many segments, and scans with ~48k runs of length 1 per a.
        "sweep runs --a 6..12 --b -7 --n-max 4e6",
        "sweep runs --a 9..11 --b -1 --n-max 452813",
    ),
    # Documented refusals: 1 domain, 2 usage.
    "refusals": _argvs(
        "density --x 1",
        "density --x 0",
        "density --x -5",
        "binom --n 1",
        "binom --n -3",
        "dyadic --k 1",
        "dyadic --k -2",
        "pow4 --m 0",
        "pow4 --m -1",
        "count --x 0",
        "count --x 0 --a 4 --b 3",
        "sieve --limit 1",
        "witness multiple --a 3 --b 1 --m 2",
        "witness multiple --a 3 --b 2 --m 0",
        # The value a*(m*b) + b is 0.
        "witness multiple --a -1 --b 2 --m 1",
        "witness unit --a 3 --b 2 --m 2",
        "witness unit --a 2 --b 1 --m 0",
        "witness power --a 2 --sign -1 --k -1",
        "witness power --a 0 --sign +1 --k 1",
        "factorial --m 1",
        "consecutive --a 0 --b 1 --count 3",
        "consecutive --a -1 --b 1 --count 3",
        "consecutive --a 2 --b 1 --count 0",
        "kcomposite --a 4 --b 2 --k 3",
        "kcomposite --a 2 --b 1 --k 0",
        "poly --coeffs 1,1 --count 0",
        "runs --a 0 --b 1 --n-max 10",
        "runs --a 2 --b 1 --n-max 0",
        "ek --x 2",
        "lucky --max 0",
        "streak --c 0",
        "fermatreal --x 4 --y 5 --z 6 --bracket 0,1",
        "fermatreal --x 0 --y 4 --z 5",
        "fermatreal --x 3 --y 4 --z 5 --bracket 3,2",
        "ratscan --x 4 --y 5 --z 6 --bracket 0,1 --q-max 5",
        "sweep density --x 0..10",
        "sweep density --x 1..1000 --geometric 10",
        "sweep dyadic --k 1..4",
        "sweep dyadic --k 0..1",
        "sweep binom --n 1..10",
        "sweep pow4 --m 0..3",
        "sweep runs --a 0..2 --b 1 --n-max 10",
        "sweep pdensity --a 0 --b 1 --x 1..10",
        "sweep pdensity --a 3 --b 2 --x 0..10",
        "sweep pdensity --a -1 --b 1 --x 1..10",
        "nosuchcmd",
        "",
        "sieve",
        "sieve --limit abc",
        "sieve --limit 1.5",
        "sieve --limit 1e-3",
        "count --x 10 --a x",
        "witness",
        "witness power --a 2 --sign 2 --k 1",
        "kcomposite --a 4 --b 1 --k 3 --mode other",
        "poly --coeffs 1,x",
        "ek --x 100 --interval 1",
        "ek --x 100 --interval a,b",
        "fermatreal --x 4 --y 5 --z 6 --bracket 2",
        "fermatreal --x 4 --y 5 --z 6 --tol abc",
        "ratscan --x 4 --y 5 --z 6 --q-max 5 --bracket 2,3,4",
        "sweep",
        "sweep density --x 10",
        "sweep density --x 100..10",
        "sweep density --x 10..100 --geometric 1",
        "sweep density --x 10..100 --format json",
        "sweep dyadic --k 5",
        "sweep dyadic --k a..b",
        "sweep binom --n 2..10 --format xml",
        "sweep pow4 --m 3..1",
        "sweep runs --a 1..2 --n-max 10",
        "sweep pdensity --a 3 --b 2 --x 1..10 --geometric 0",
        "ek --x 1000 --interval 1,-1",
        "count --x 100 --b 3",
    ),
    # Capacity (exit 3) against --max-sieve, and the domain checked first.
    "capacity": _argvs(
        "--max-sieve 1000 sieve --limit 1e5",
        "--max-sieve 1000 sieve --limit 1000",
        "--max-sieve 1000 count --x 1e4",
        "--max-sieve 1e3 count --x 1000 --a 4 --b 3",
        "--max-sieve 100 density --x 1000",
        "--max-sieve 1000 density --x 1000",
        "--max-sieve 100 density --x 1",
        "--max-sieve 0 density --x 0",
        "--max-sieve 100 binom --n 100",
        "--max-sieve 200 binom --n 100",
        "--max-sieve 0 binom --n 1",
        "--max-sieve 1 binom --n 0",
        "--max-sieve 100 dyadic --k 10",
        "--max-sieve 1024 dyadic --k 10",
        "--max-sieve 0 dyadic --k 1",
        "--max-sieve 100 pow4 --m 5",
        "--max-sieve 1024 pow4 --m 5",
        "--max-sieve 0 pow4 --m 0",
        "--max-sieve 1000 runs --a 6 --b 1 --n-max 1000",
        "--max-sieve 1000 runs --a 6 --b 1 --n-max 100",
        "--max-sieve 100 runs --a 1 --b 0 --n-max 100",
        "--max-sieve 100 runs --a 1 --b 0 --n-max 101",
        "--max-sieve 1000 ek --x 1e4",
        "--max-sieve 1000 ek --x 1000",
        "--max-sieve 0 ek --x 2",
        "--max-sieve 100 sweep density --x 10..1000",
        "--max-sieve 1000 sweep density --x 10..1000",
        "--max-sieve 500 sweep density --x 10..1000 --geometric 7",
        "--max-sieve 0 sweep density --x 0..1",
        "--max-sieve 100 sweep dyadic --k 2..10",
        "--max-sieve 1024 sweep dyadic --k 2..10",
        "--max-sieve 100 sweep binom --n 2..100",
        "--max-sieve 200 sweep binom --n 2..100 --step 10",
        "--max-sieve 100 sweep pow4 --m 1..5",
        "--max-sieve 1024 sweep pow4 --m 1..5",
        "--max-sieve 100 sweep runs --a 1..6 --b 1 --n-max 100",
        "--max-sieve 100 sweep runs --a 1..2 --b 0 --n-max 50",
        "--max-sieve 100 sweep runs --a 1..2 --b 0 --n-max 51",
        "--max-sieve 100 sweep pdensity --a 3 --b 2 --x 1..1000",
        "--max-sieve 100 sweep pdensity --a 1 --b 0 --x 1..100",
        "--max-sieve 100 sweep pdensity --a 1 --b 0 --x 1..101 --geometric 101",
        "--max-sieve 1e5 sweep pdensity --a 3 --b 2 --x 1..1e5",
        "--max-sieve 1e6 sweep runs --a 1..1e9 --b 1 --n-max 10",
        "--max-sieve 2000 twin3 --count 3 --k-max 1000",
        "--max-sieve 2001 twin3 --count 3 --k-max 1000",
        "sweep pdensity --a 1 --b 0 --x 1..1e30 --geometric 2",
        "--max-sieve 100 witness unit --a 2 --b 1 --m 3",
        "ratscan --x 5 --y 12 --z 13 --bracket 1.3,2.3 --q-max 1e9",
        "--max-sieve abc sieve --limit 10",
        # Past Python's int-to-str digit limit, math.factorial's argument
        # limit and float range.
        "factorial --m 1700",
        "witness power --a 20 --sign 1 --k 3000",
        "kcomposite --a 10 --b 1 --k 1000 --count 1",
        "factorial --m 1e19",
        "fermatreal --x 3 --y 4 --z 5 --bracket 1.5,2.5 --tol 5e-324",
        "ratscan --x 3 --y 4 --z 5 --bracket -1e308,1e308 --q-max 10",
        "factorial --m 200000",
        # Refused up front by their digit estimates, before anything is built.
        "witness power --a 1 --sign +1 --k 1e7",
        "kcomposite --a 10 --b 1 --k 10000 --count 1",
        # Refused as the first witness's product grows past the limit.
        "kcomposite --a 2 --b 1 --k 1800 --count 50",
        # Refused at its first value, of 4,501 digits, not after building
        # 20,000 of them.
        "poly --coeffs 1e300,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1 --count 20000",
        # Scan windows with room for more candidates than the scan cap: the
        # root 2 is the upper end, and |f| is below tol far to its left.
        "ratscan --x 3 --y 4 --z 5 --bracket -1e308,2 --q-max 10",
        "ratscan --x 3 --y 4 --z 5 --bracket -100,2.5 --q-max 1e5",
        # Each j gives at most one record, so a count past the search cap
        # is refused before the first.
        "poly --coeffs 1,1 --count 1e9",
        # a < 0: no term past m = 14 is at least 2, so the search for a
        # tenth prime term ends there.
        "kcomposite --a -2 --b 31 --k 1 --count 10",
    ),
    "help": _help_pages(),
}


def run(argv: list[str]) -> dict:
    res = run_cli(argv)
    return {"argv": argv, "exit_code": res.code, "stdout": res.out, "stderr": res.err,
            "budget_s": BUDGETS.get(shlex.join(argv), BUDGET_S)}


def main() -> None:
    named = {shlex.join(argv) for argvs in GROUPS.values() for argv in argvs}
    assert BUDGETS.keys() <= named, f"budgets of no argv: {sorted(BUDGETS.keys() - named)}"
    for group, argvs in GROUPS.items():
        cases = [run(argv) for argv in argvs]
        (HERE / f"{group}.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
