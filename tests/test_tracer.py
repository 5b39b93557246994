"""bench/tracer.py still records the library calls the CLI makes.

After `import apcomposites.cli`, the tracer wraps each public function
of the library modules and rebinds every attribute that holds one in
every loaded `apcomposites` module, the package and the CLI included, so
a call is traced however the CLI reaches the function. One command per
library module, each run through the tracer in a fresh interpreter, must
print what the plain command prints and leave its library function in
the trace's stats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    (["witness", "unit", "--a", "2", "--b", "1", "--m", "3"], ["constructions.witness_unit_b"]),
    (["runs", "--a", "6", "--b", "1", "--n-max", "1000"], ["analysis.longest_prime_run"]),
    (["streak", "--c", "41"], ["explorer.prime_streak"]),
    (["dyadic", "--k", "10"], ["analysis.dyadic_gap_bound", "numcore.prime_counts"]),
    (["sweep", "dyadic", "--k", "2..10"], ["analysis.dyadic_gap_bound", "numcore.prime_counts"]),
    (["count", "--x", "100"], ["numcore.prime_count"]),
    (["count", "--x", "1000", "--a", "4", "--b", "3"], ["numcore.prime_count"]),
]


@pytest.mark.parametrize("argv, traced", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_tracer_sees_library_calls(tmp_path, argv, traced):
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv).out
    stats = json.loads(out.read_text())["stats"]
    for name in traced:
        assert stats.get(name, [0])[0] >= 1, name
