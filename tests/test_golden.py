"""Replay the CLI golden files (tests/golden/*.json, written by
tests/golden/regen.py): stdout bytes and exit code must match exactly."""

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from apcomposites import analysis, constructions, explorer, numcore
from apcomposites.cli import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = [case for path in sorted(GOLDEN_DIR.glob("*.json"))
         for case in json.loads(path.read_text())]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]) or "<no args>")
def test_golden(case):
    # The terminal width regen.py pins for the help pages.
    res = CliRunner(env={"COLUMNS": "80"}).invoke(cli, case["argv"], catch_exceptions=False)
    assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_golden_stdout_is_strict_json():
    for case in CASES:
        if "--help" in case["argv"]:
            continue
        csv = "csv" in case["argv"]
        for line in case["stdout"].splitlines():
            if csv and not line.startswith("# summary: "):
                continue
            json.loads(line.removeprefix("# summary: "), parse_constant=_reject_constant)


def test_every_operation_reached():
    """Every public library operation runs under some golden argv. Code
    objects are recorded with a profiler, since the CLI may hold function
    objects captured at import."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    runner = CliRunner()
    sys.setprofile(profile)
    try:
        for case in CASES:
            runner.invoke(cli, case["argv"])
    finally:
        sys.setprofile(None)
    helpers = {
        numcore.is_prime,  # surfaced implicitly by every witness proof
        numcore.factorize,
        analysis.gaussian_mass,
        analysis.run_length_threshold,
    }
    missing = [f"{mod.__name__}.{name}"
               for mod in (numcore, constructions, analysis, explorer)
               for name in mod.__all__
               if (op := getattr(mod, name)) not in helpers
               and callable(op) and not isinstance(op, type)
               and op.__code__ not in reached]
    assert missing == []
