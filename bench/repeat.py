"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/repeat.py --workloads count_sweeps,term_scans --seeds 1-10 \
        [--trace 0] [--out FILE]

Runs bench/run.py once per (workload, seed), one run at a time, for the
run_seconds that BENCHMARK.json gives, and
prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median. With --out the summary and every run's result line
are also written as JSON, e.g. to record a baseline before a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, environment


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="'first-last', e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, **environment(), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=BENCH.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            status |= not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarise(v) for name, v in values.items()}
        for name, s in summary.items():
            print(f"  {name:48s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
