"""Which of the heavy libraries each kind of command loads.

The package never imports numpy, and imports mpmath only inside the
kernels that use it (`fermatreal`, `ratscan`), so every other command
loads neither. Every case runs in a fresh interpreter, since sys.modules
of the test process may already hold both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
print(json.dumps(sorted({"numpy", "mpmath"} & set(sys.modules))))
"""

CASES = [
    (["import"], []),
    (["--help"], []),
    (["witness", "multiple", "--a", "3", "--b", "2", "--m", "5"], []),
    (["factorial", "--m", "20"], []),
    (["kcomposite", "--a", "4", "--b", "1", "--k", "3", "--count", "5"], []),
    (["consecutive", "--a", "2", "--b", "1", "--count", "5"], []),
    (["poly", "--coeffs", "1,1,1", "--count", "3"], []),
    (["twin3", "--count", "3"], []),
    (["lucky", "--max", "100"], []),
    (["streak", "--c", "41"], []),
    (["runs", "--a", "6", "--b", "1", "--n-max", "1000"], []),
    (["sweep", "runs", "--a", "1..3", "--b", "1", "--n-max", "1000"], []),
    (["sweep", "pdensity", "--a", "3", "--b", "2", "--x", "1..1000"], []),
    (["fermatreal", "--x", "4", "--y", "5", "--z", "6"], ["mpmath"]),
    (["count", "--x", "100"], []),
    (["count", "--x", "100", "--a", "4", "--b", "3"], []),
    (["sieve", "--limit", "1000"], []),
    (["density", "--x", "1000"], []),
    (["binom", "--n", "100"], []),
    (["dyadic", "--k", "10"], []),
    (["pow4", "--m", "3"], []),
    (["sweep", "density", "--x", "10..1e4"], []),
    (["sweep", "binom", "--n", "2..1000", "--step", "7"], []),
    (["sweep", "dyadic", "--k", "2..12"], []),
    (["sweep", "pow4", "--m", "1..5"], []),
    (["ek", "--x", "1000"], []),
]


@pytest.mark.parametrize("argv, loaded", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_loads_only_what_the_kernel_needs(argv, loaded):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded
