"""Which heavy libraries and library modules each kind of command loads.

The package never imports numpy, and imports mpmath only inside the
kernels that use it (`fermatreal`, `ratscan`), so every other command
loads neither. `import apcomposites` and `--help` load none of the four
library modules, and each command only those it runs: numcore alone for
the counts. The CLI loads the stdlib's decimal only for a non-integer
number, fractions (and with it decimal) only for a command that computes
an exact ratio, __future__ only with mpmath, zlib only for a command
that counts more than 2,048 bytes of a mask, and no command loads csv, click,
inspect or dataclasses. Every case runs in a fresh interpreter, since
sys.modules of the test process may already hold all of them, and under
`python -S`, since a .pth file that site processes may import any module
first; the test process's sys.path is passed on PYTHONPATH in its place.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apcomposites

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, runpy, sys

argv = sys.argv[1:]
if argv == ["import"]:
    import apcomposites
else:
    sys.argv = ["apcomposites", *argv]
    try:
        runpy.run_module("apcomposites.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
layers = {"numcore", "analysis", "constructions", "explorer"}
print(json.dumps({
    "layers": sorted({"numpy", "mpmath"} & set(sys.modules)
                     | {m for m in layers if f"apcomposites.{m}" in sys.modules}),
    "stdlib": sorted({"__future__", "decimal", "fractions", "csv", "zlib"}
                     & set(sys.modules)),
    "slow": sorted({"click", "inspect", "dataclasses"} & set(sys.modules)),
}))
"""

# The library modules of each kind of command.
BUILD = ["constructions", "numcore"]
CHECK = ["analysis", "numcore"]
EXPLORE = ["explorer", "numcore"]

CASES = [
    (["import"], []),
    (["--help"], []),
    (["witness", "multiple", "--a", "3", "--b", "2", "--m", "5"], BUILD),
    (["witness", "power", "--a", "3", "--sign", "+1", "--k", "3"], BUILD),
    (["factorial", "--m", "20"], BUILD),
    (["kcomposite", "--a", "4", "--b", "1", "--k", "3", "--count", "5"], BUILD),
    (["consecutive", "--a", "2", "--b", "1", "--count", "5"], BUILD),
    (["poly", "--coeffs", "1,1,1", "--count", "3"], BUILD),
    (["twin3", "--count", "3"], BUILD),
    (["lucky", "--max", "100"], EXPLORE),
    (["streak", "--c", "41"], EXPLORE),
    (["runs", "--a", "6", "--b", "1", "--n-max", "1000"], CHECK),
    (["sweep", "runs", "--a", "1..3", "--b", "1", "--n-max", "1000"], CHECK),
    (["sweep", "pdensity", "--a", "3", "--b", "2", "--x", "1..1000"], CHECK),
    (["fermatreal", "--x", "4", "--y", "5", "--z", "6"], ["explorer", "mpmath", "numcore"]),
    (["ratscan", "--x", "3", "--y", "4", "--z", "5", "--q-max", "10"],
     ["explorer", "mpmath", "numcore"]),
    (["count", "--x", "100"], ["numcore"]),
    (["count", "--x", "100", "--a", "4", "--b", "3"], ["numcore"]),
    (["sieve", "--limit", "1000"], ["numcore"]),
    (["density", "--x", "1000"], CHECK),
    (["binom", "--n", "100"], CHECK),
    (["dyadic", "--k", "10"], CHECK),
    (["pow4", "--m", "3"], CHECK),
    (["sweep", "density", "--x", "10..1e4"], CHECK),
    (["sweep", "binom", "--n", "2..1000", "--step", "7"], CHECK),
    (["sweep", "dyadic", "--k", "2..12"], CHECK),
    (["sweep", "pow4", "--m", "1..5"], CHECK),
    (["ek", "--x", "1000"], CHECK),
]


def _probe(argv: list[str]) -> dict:
    """The modules loaded after running argv in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, loaded", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_loads_only_what_the_kernel_needs(argv, loaded):
    probe = _probe(argv)
    assert probe["layers"] == loaded
    # Each costs start-up and none is needed: the CLI parses argv from its
    # own table, and records are plain slotted classes.
    assert probe["slow"] == []


# fractions imports decimal itself. The run scan and the witnesses count
# no mask. A short sweep's counts, and a point count or an omega walk
# below 13**4, where the pre-sieve's wheel of 15,015 bytes starts, count
# no mask of more than 2,048 bytes, so they never load zlib; from 13**4
# on, the walk's table counts the wheel and loads it. No package module
# imports __future__; mpmath does, for fermatreal and ratscan.
STDLIB_CASES = [
    (["--help"], []),
    (["count", "--x", "100"], []),
    (["count", "--x", "1e2"], ["decimal"]),
    (["count", "--x", "1e6", "--a", "4", "--b", "3"], ["decimal", "zlib"]),
    (["sweep", "dyadic", "--k", "2..5", "--format", "csv"], []),
    (["sweep", "binom", "--n", "2..50"], []),
    (["ek", "--x", "1000"], []),
    (["ek", "--x", "28561"], ["zlib"]),
    (["runs", "--a", "6", "--b", "1", "--n-max", "1000"], []),
    (["density", "--x", "1000"], ["decimal", "fractions"]),
    (["witness", "multiple", "--a", "3", "--b", "2", "--m", "5"], []),
    (["witness", "power", "--a", "3", "--sign", "+1", "--k", "3"], []),
    (["consecutive", "--a", "2", "--b", "1", "--count", "5"], []),
    (["streak", "--c", "41"], []),
    (["lucky", "--max", "100"], []),
    (["fermatreal", "--x", "4", "--y", "5", "--z", "6"], ["__future__"]),
]


@pytest.mark.parametrize("argv, loaded", STDLIB_CASES,
                         ids=[" ".join(c[0]) for c in STDLIB_CASES])
def test_stdlib_modules_load_on_demand(argv, loaded):
    assert _probe(argv)["stdlib"] == loaded


# Every name `apcomposites` exported when it imported all its modules eagerly.
EXPORTS = {
    "analysis": ["central_binom_bound", "density_bound_check", "dyadic_gap_bound",
                 "erdos_kac_samples", "longest_prime_run", "pi_power4_bound",
                 "progression_composite_densities"],
    "constructions": ["CompositeWitness", "KCompositeWitness", "consecutive_in_progression",
                      "factorial_consecutive", "k_composite_witnesses",
                      "polynomial_composites", "three_composites_4n3",
                      "witness_multiple_of_b", "witness_power", "witness_unit_b"],
    "errors": ["ApcompositesError", "BracketError", "CapacityError",
               "DegenerateInputError", "DomainError", "WrongBranchError"],
    "explorer": ["euler_lucky_search", "fermat_real_root", "prime_streak", "rational_scan"],
    "numcore": ["Factorization", "PrimeTable", "Progression", "factorize", "is_prime",
                "prime_count", "prime_counts"],
}


def test_every_export_resolves():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"apcomposites.{module}")
        for name in names:
            assert getattr(apcomposites, name) is getattr(mod, name), name
            assert name in dir(apcomposites) and name in apcomposites.__all__, name
    assert apcomposites.__version__ == "0.1.0"
    assert sorted(apcomposites.__all__) == sorted(n for ns in EXPORTS.values() for n in ns)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'prime_sieve'"):
        apcomposites.prime_sieve  # noqa: B018
