"""Replay the CLI golden files (tests/golden/*.json, written by
tests/golden/regen.py): exit code, stdout and stderr must match exactly,
and each run must end within its record's wall-time budget."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from apcomposites import analysis, constructions, explorer, numcore
from conftest import run_cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN_DIR.parents[1]
CASES = [case for path in sorted(GOLDEN_DIR.glob("*.json"))
         for case in json.loads(path.read_text())]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]) or "<no args>")
def test_golden(case):
    res = run_cli(case["argv"], case["budget_s"])
    assert res == (case["exit_code"], case["stdout"], case["stderr"])


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

    sys.setprofile(profile)
    try:
        for case in CASES:
            run_cli(case["argv"])
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


def _diff(old: Path, new: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(GOLDEN_DIR / "diff.py"), str(old), str(new),
                           "--group", "refusals", *flags],
                          capture_output=True, text=True, timeout=120)


def test_diff_lists_nothing_between_a_tree_and_itself():
    argvs = len(json.loads((GOLDEN_DIR / "refusals.json").read_text()))
    res = _diff(ROOT, ROOT)
    memory, behaviour = res.stdout.splitlines()
    assert (res.returncode, behaviour) == (0, f"{argvs} argvs, 0 differ"), res.stderr
    assert re.fullmatch(rf"{argvs} argvs traced, 0 with a traced-peak rise, 0 timed out "
                        r"under tracing; wall [0-9.]+ -> [0-9.]+ s", memory), memory


def test_diff_all_shows_each_argv_time_and_peak():
    refusals = json.loads((GOLDEN_DIR / "refusals.json").read_text())
    res = _diff(ROOT, ROOT, "--all")
    lines = res.stdout.splitlines()
    assert res.returncode == 0 and len(lines) == len(refusals) + 2, res.stderr
    for record, line in zip(refusals, lines):
        name = " ".join(record["argv"]) or "<no args>"
        assert re.fullmatch(re.escape(name) + r": wall [0-9.]+ -> [0-9.]+ s, "
                            r"peak [0-9.]+ -> [0-9.]+ MiB", line), line


def test_diff_lists_each_argv_that_differs(tmp_path):
    # A tree whose CLI writes its argv and exits 0: every refusal differs.
    package = tmp_path / "src" / "apcomposites"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import sys\n\ndef main(argv):\n    print(argv)\n"
                                    "    sys.exit(0)\n")
    argvs = len(json.loads((GOLDEN_DIR / "refusals.json").read_text()))
    res = _diff(ROOT, tmp_path)
    lines = res.stdout.splitlines()
    assert res.returncode == 1 and lines[-1] == f"{argvs} argvs, {argvs} differ"
    assert re.fullmatch(r"density --x 1: code, stdout, stderr differ \(exit 1 -> 0\); wall "
                        r"[0-9.]+ -> [0-9.]+ s, peak [0-9.]+ -> [0-9.]+ MiB", lines[0]), lines[0]


def test_diff_lists_each_traced_peak_rise(tmp_path):
    # The same CLI, holding 1 MiB more while it runs: every refusal keeps
    # its behaviour, and its traced peak grows past 10% and 256 KiB.
    shutil.copytree(ROOT / "src" / "apcomposites", tmp_path / "src" / "apcomposites",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "apcomposites" / "cli.py", "a") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n"
                  "    ballast = bytearray(1 << 20)\n    return _main(argv)\n")
    argvs = len(json.loads((GOLDEN_DIR / "refusals.json").read_text()))
    res = _diff(ROOT, tmp_path)
    lines = res.stdout.splitlines()
    assert res.returncode == 1 and lines[-1] == f"{argvs} argvs, 0 differ"
    assert lines[-2].startswith(f"{argvs} argvs traced, {argvs} with a traced-peak rise, ")
    assert re.fullmatch(r"density --x 1: traced peak grew; wall [0-9.]+ -> [0-9.]+ s, "
                        r"peak [0-9.]+ -> [0-9.]+ MiB", lines[0]), lines[0]
