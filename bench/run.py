"""End-to-end benchmark of the apcomposites CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed generates the workload's job list
(bench/workloads.py); each job is one fresh ``python -m apcomposites.cli
ARGV`` child with PYTHONPATH=src, the way a user runs one command per
process, so every job pays interpreter start-up and imports.

Closed loop, one client: one job at a time, each started when the last
has exited. After one untimed warm-up invocation (so .pyc writes do not
land in a job) and SETUP_RUNS timed ``--help`` invocations, the whole
job list is run in passes until another pass would overrun --seconds
(always at least one). With --trace 1, one further pass runs every job
twice back to back, untraced and under bench/tracer.py, in alternating
order. Every job's exit code and stdout are checked by bench/oracle.py
after all timing is done.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones:

  setup_s      median wall time of ``apcomposites --help`` (start-up)
  wall_s       median wall time of one pass over the whole job list
  job_p50_s    median wall time of a job, spawn to exit, over all passes
  job_tail_s   75th percentile of the same: a pass has 40 jobs, so at
               least 10 executions lie beyond it
  peak_rss_mb  largest child peak RSS, from os.wait4 of that child
  ok_ratio     share of attempted jobs whose exit code and output pass
               the checks (expected refusals count as passing)

Times are reported at a reference machine speed. The 2-core VM this
benchmark was built on is shared, and its speed drifts by up to ~30%
over minutes (the same job list took 17.5 s a pass, then 12.7 s a few
minutes later), which swamps the changes the benchmark must resolve.
So before every second job, and before each setup sample, the run times
CALIBRATION, a fixed child that nothing in the repository can change,
and multiplies each job or setup time by CALIBRATION_REF_S / (median of
the calibration run just before it and its two neighbours), so that a
time is scaled by the machine's speed at the moment it was taken. The
unscaled values and the calibration samples are kept in the result file.

With --trace 1 the metrics are those of PER_LAYER, unscaled: calls,
self time and counts per layer function from the traced pass, plus the
tracing overhead: the traced-minus-untraced wall time of each job, from
its two back-to-back runs, summed over the job list. The argv lists,
per-job times, exit codes, RSS and failures of the run are written with
the metrics to bench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Job, generate  # noqa: E402

SETUP_RUNS = 11
# Fixed reference work that no change to the repository can speed up:
# interpreter start-up plus importing the libraries the CLI loads. Its
# median wall time in a run measures how fast the shared machine is
# during that run; CALIBRATION_REF_S is that median on the 2-core Xeon
# (2.1 GHz) VM the baseline was taken on, in a quiet period.
CALIBRATION = ("-c", "import click, mpmath, numpy")
CALIBRATION_REF_S = 0.27
CALIBRATE_EVERY = 2  # jobs between calibration runs
# A pass has JOBS_PER_PASS = 40 jobs, so at least 10 executions lie above p75.
TAIL_PERCENTILE = 75
JOB_TIMEOUT_S = 60

# Public functions whose calls and self time are reported per layer.
TRACED_FUNCTIONS = (
    "cli.main", "cli.emit", "cli.as_jsonable",
    "numcore.sieve", "numcore.PrimeTable.count", "numcore.prime_count",
    "numcore.prime_count_progression", "numcore.is_prime", "numcore.factorize",
    "analysis.central_binom_bound", "analysis.dyadic_gap_bound",
    "analysis.pi_power4_bound", "analysis.density_bound_check",
    "analysis.longest_prime_run", "analysis.progression_composite_density",
    "analysis.erdos_kac_samples",
    "constructions.witness_multiple_of_b", "constructions.witness_unit_b",
    "constructions.witness_power", "constructions.factorial_consecutive",
    "constructions.consecutive_in_progression", "constructions.k_composite_witnesses",
    "constructions.polynomial_composites", "constructions.three_composites_4n3",
    "explorer.euler_lucky_search", "explorer.prime_streak",
    "explorer.fermat_real_root", "explorer.rational_scan",
)
LAYERS = ("cli", "numcore", "analysis", "constructions", "explorer")
TRACED_COUNTS = {
    "numcore.sieve.ints": "count",
    "numcore.sieve.bytes_computed": "B",
    "analysis.term_bytes_computed": "B",
    "constructions.witnesses_emitted": "count",
    "explorer.fermat_real_root.iterations": "count",
    "explorer.rational_scan.candidates": "count",
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "cli.import_s": "s", "cli.stdout_bytes": "B",
    **{f"{f}.{k}": u for f in TRACED_FUNCTIONS for k, u in (("calls", "count"), ("self_s", "s"))},
    "numcore.is_prime.prime_ratio": "ratio",
    **TRACED_COUNTS,
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


@dataclass
class Execution:
    wall_s: float
    rc: int
    rss_mb: float
    stdout: bytes


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    def run(self, argv: list[str]) -> Execution:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Execution(wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_bytes())

    def calibrate(self) -> float:
        return self.run([sys.executable, *CALIBRATION]).wall_s

    def cli(self, job_argv) -> Execution:
        return self.run([sys.executable, "-m", "apcomposites.cli", *job_argv])

    def traced(self, job_argv, trace_path: Path) -> Execution:
        return self.run([sys.executable, str(BENCH / "tracer.py"), str(trace_path), *job_argv])


def measure(runner: Runner, jobs: list[Job], seconds: float) -> tuple[list, list]:
    """Whole passes over the job list until the next would overrun.

    Returns the passes' executions and, per pass, the calibration times
    taken before every CALIBRATE_EVERY-th job.
    """
    passes, calibrations = [], []
    start = time.perf_counter()
    while True:
        run, calibration = [], []
        for k, job in enumerate(jobs):
            if k % CALIBRATE_EVERY == 0:
                calibration.append(runner.calibrate())
            run.append(runner.cli(job.argv))
        passes.append(run)
        calibrations.append(calibration)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, calibrations


def scaled(times: list[float], calibration: list[float], per: int) -> list[float]:
    """times at the reference machine speed.

    Time k follows calibration run k // per; it is scaled by the median
    of that calibration run and its two neighbours.
    """
    out = []
    for k, t in enumerate(times):
        i = k // per
        out.append(t * CALIBRATION_REF_S / statistics.median(calibration[max(0, i - 1):i + 2]))
    return out


def end_to_end(setup: list[float], pass_times: list[list[float]], rss_mb: float,
               ok: float) -> dict:
    """The END_TO_END metrics from setup times and per-pass job times.

    A pass's wall time is the sum of its jobs' wall times, so the
    calibration runs between jobs are not part of it.
    """
    walls = sorted(t for p in pass_times for t in p)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p) for p in pass_times),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": walls[math.ceil(len(walls) * TAIL_PERCENTILE / 100) - 1],
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok,
    }


def per_layer(traces: list[dict], traced: list[Execution], untraced: list[Execution]) -> dict:
    stats, counts = {}, {}
    for tr in traces:
        for name, (calls, _total, self_s) in tr["stats"].items():
            agg = stats.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for key, amount in tr["counts"].items():
            counts[key] = counts.get(key, 0) + amount
    import_s = sum(tr["import_s"] for tr in traces)
    all_self = sum(s for _, s in stats.values())
    metrics = {"cli.import_s": import_s,
               "cli.stdout_bytes": sum(len(e.stdout) for e in traced)}
    for f in TRACED_FUNCTIONS:
        calls, self_s = stats.get(f, (0, 0.0))
        metrics[f"{f}.calls"] = calls
        metrics[f"{f}.self_s"] = self_s
    mr_calls = stats.get("numcore.is_prime", (0, 0.0))[0]
    metrics["numcore.is_prime.prime_ratio"] = (
        counts.get("numcore.is_prime.true", 0) / mr_calls if mr_calls else 0.0)
    for key in TRACED_COUNTS:
        metrics[key] = counts.get(key, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(s for n, (_, s) in stats.items()
                                         if n.startswith(layer + "."))
    traced_wall = sum(e.wall_s for e in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(e.wall_s for e in untraced)
    metrics["trace.unattributed_s"] = traced_wall - import_s - all_self
    return metrics


def unattributed_negative(trace: dict, execution: Execution) -> bool:
    """Self times plus import cannot exceed the job's own wall time."""
    spent = trace["import_s"] + sum(s[2] for s in trace["stats"].values())
    return spent > execution.wall_s


def verify(jobs: list[Job], passes: list, traced: list = (), traces: list = ()) -> list[dict]:
    """One failure record per execution whose exit code or stdout is wrong.

    Identical outputs of one job share a verdict. A traced execution must
    also print exactly what the untraced one printed, and its self times
    must fit in its wall time.
    """
    # Imported only here, after the timed passes: a child's ru_maxrss starts
    # from the RSS of the process that spawned it, so the parent stays small
    # (stdlib only) while jobs run.
    from oracle import PrimeOracle, check

    oracle, verdicts, failures = PrimeOracle(), {}, []
    executions = [(p, i, e) for p, run in enumerate(passes) for i, e in enumerate(run)]
    executions += [("traced", i, e) for i, e in enumerate(traced)]
    for label, i, e in executions:
        key = (i, e.rc, e.stdout)
        if key not in verdicts:
            verdicts[key] = check(jobs[i], e.rc, e.stdout, oracle)
        reason = verdicts[key]
        if label == "traced" and reason is None and e.stdout != passes[0][i].stdout:
            reason = "traced stdout differs from untraced stdout"
        if label == "traced" and reason is None and unattributed_negative(traces[i], e):
            reason = "traced self times exceed the job's wall time"
        if reason is not None:
            failures.append({"pass": label, "job": i, "reason": reason})
    return failures


def environment() -> dict:
    """What a result depends on besides the seed: commit, interpreter, libraries, cores."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        sha = out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "versions": {pkg: version(pkg) for pkg in ("numpy", "mpmath", "click")}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "apcomposites" / "cli.py").is_file():
        print(f"error: no apcomposites source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = generate(args.workload, args.seed)
    out_dir = BENCH / "out"
    work = out_dir / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)

    warm = runner.cli(["--help"])
    if warm.rc != 0:
        print(f"error: warm-up invocation exited {warm.rc}", file=sys.stderr)
        return 1
    setup, setup_calibration = [], []
    for _ in range(SETUP_RUNS):
        setup_calibration.append(runner.calibrate())
        setup.append(runner.cli(["--help"]).wall_s)
    passes, calibrations = measure(runner, jobs, args.seconds)

    traced, untraced, traces = [], [], []
    if args.trace:
        for i, job in enumerate(jobs):
            trace_path = work / f"trace{i}.json"
            if i % 2:
                traced.append(runner.traced(job.argv, trace_path))
            untraced.append(runner.cli(job.argv))
            if not i % 2:
                traced.append(runner.traced(job.argv, trace_path))
        traces = [json.loads((work / f"trace{i}.json").read_text()) for i in range(len(jobs))]

    checked = [*passes, untraced] if args.trace else passes
    t0 = time.perf_counter()
    failures = verify(jobs, checked, traced, traces)  # outside every timed region
    check_s = time.perf_counter() - t0
    attempted = len(checked) * len(jobs) + len(traced)
    failed = len(failures)

    raw = None
    if args.trace:
        metrics, units = per_layer(traces, traced, untraced), PER_LAYER
    else:
        ok = (attempted - failed) / attempted
        rss_mb = max(e.rss_mb for p in passes for e in p)
        raw = end_to_end(setup, [[e.wall_s for e in p] for p in passes], rss_mb, ok)
        metrics = end_to_end(
            scaled(setup, setup_calibration, 1),
            [scaled([e.wall_s for e in p], c, CALIBRATE_EVERY)
             for p, c in zip(passes, calibrations)],
            rss_mb, ok)
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **environment(),
        "jobs": [{"argv": list(j.argv), "expect_rc": j.expect_rc} for j in jobs],
        "setup_s": setup, "setup_calibration_s": setup_calibration,
        "pass_calibration_s": calibrations,
        "passes": [[{"wall_s": e.wall_s, "rc": e.rc, "rss_mb": e.rss_mb,
                     "stdout_bytes": len(e.stdout)} for e in run] for run in passes],
        "traced": [{"wall_s": e.wall_s, "untraced_wall_s": u.wall_s, "rc": e.rc,
                    "stdout_bytes": len(e.stdout)} for e, u in zip(traced, untraced)],
        "check_s": check_s, "failures": failures, "metrics": metrics,
        "raw_metrics": raw,
    }
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
