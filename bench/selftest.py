"""Self-test of the benchmark's checks and metric names.

    python3 bench/selftest.py

Runs a few real CLI jobs and requires that the checks pass them. Then
corrupts one record at a time (a wrong pi(x), a dropped prime factor, a
sample fraction off by one sample, a truncated output, a refusal that exited 0, a traced run that printed
something else) and requires each corruption to be counted as exactly
one failed execution, which is what lowers ok_ratio. Finally requires
BENCHMARK.json to name exactly the metrics run.py prints. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT, Runner, verify
from workloads import Job

JOBS = [
    Job(("count", "--x", "1000003")),
    Job(("witness", "unit", "--a", "4", "--b", "-1", "--m", "12")),
    Job(("runs", "--a", "6", "--b", "1", "--n-max", "20000")),
    Job(("ratscan", "--x", "3", "--y", "4", "--z", "5", "--bracket", "1.5,2.5", "--q-max", "20")),
    Job(("density", "--x", "1"), expect_rc=1),
    Job(("ek", "--x", "200000")),
]


def corrupt_pi(stdout: bytes) -> bytes:
    record = json.loads(stdout)
    record["result"]["pi"] += 1
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def corrupt_proof(stdout: bytes) -> bytes:
    record = json.loads(stdout)
    record["result"]["proof"]["factors"].pop()
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def corrupt_fraction(stdout: bytes) -> bytes:
    """One more sample inside the interval: still a multiple of 1/(x-2) in [0, 1]."""
    record = json.loads(stdout)
    result = record["result"]
    inside = round(result["sample_fraction"] * result["sample_count"])
    result["sample_fraction"] = (inside + 1) / result["sample_count"]
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as work:
        runner = Runner(Path(work))
        clean = [runner.cli(job.argv) for job in JOBS]
    problems = []
    failures = verify(JOBS, [clean])
    if failures:
        problems.append(f"clean run has failures: {failures}")
    cases = {
        "wrong pi(x)": (0, lambda e: replace(e, stdout=corrupt_pi(e.stdout))),
        "dropped factor": (1, lambda e: replace(e, stdout=corrupt_proof(e.stdout))),
        "truncated output": (2, lambda e: replace(e, stdout=e.stdout[: len(e.stdout) // 2])),
        "refusal exited 0": (4, lambda e: replace(e, rc=0)),
        "ek sample fraction": (5, lambda e: replace(e, stdout=corrupt_fraction(e.stdout))),
    }
    for name, (i, corrupt) in cases.items():
        bad = list(clean)
        bad[i] = corrupt(clean[i])
        failures = verify(JOBS, [clean, bad])
        if [(f["pass"], f["job"]) for f in failures] != [(1, i)]:
            problems.append(f"{name}: expected one failure at job {i}, got {failures}")
    traced = list(clean)
    traced[0] = replace(clean[0], stdout=clean[0].stdout + b"\n")
    no_time = [{"import_s": 0.0, "stats": {}} for _ in JOBS]
    failures = verify(JOBS, [clean], traced, no_time)
    if [(f["pass"], f["job"]) for f in failures] != [("traced", 0)]:
        problems.append(f"traced stdout change not caught: {failures}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != names:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(names.items()))}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
