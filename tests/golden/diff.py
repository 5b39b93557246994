"""List the CLI argvs whose behaviour or traced memory differs between
two source trees.

    python tests/golden/diff.py OLD NEW [--group NAME ...] [--all]

OLD and NEW are source trees, such as a checkout or a `git archive`
export; each holds `src/apcomposites`. The argvs come from the tree this
script lives in: every group of `tests/golden/regen.py`, and the job
lists of `bench/workloads.py` for each workload at seeds 1-10 (the group
`workloads`). `--group` keeps only the named groups.

Each tree runs in two worker processes, which import its `cli.main`
and whatever the CLI loads lazily once, and fork a child per argv. The
child has a 10 s `signal.alarm` and an address space capped by
`RLIMIT_AS`, so an argv that runs away is listed as a timeout or a
failure, not left to swap. The child runs its argv under tracemalloc
and times it, with stdout going to a sink that keeps only its sha256.

An argv is listed when its exit code, stdout sha256 or stderr sha256
differ; one that times out on both sides is a match. Apart from those,
an argv is listed when its traced peak grew by more than 10% and by more
than 256 KiB. One that times out under tracing on either side is run
again there untraced, for its behaviour; it is listed as such, and its
memory is not compared. Each listed argv shows both sides' wall time
under tracing and traced peak, and `--all` shows them for every argv.
The last two lines are the summaries, of memory and then of behaviour,
and the exit code is 1 when any argv differs or its traced peak grew.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(1, 11)
ALARM_S = 10
ADDRESS_SPACE = 1 << 30
# A traced peak that grew by more than both of these is listed.
PEAK_RATIO, PEAK_BYTES = 1.10, 256 << 10
WORKERS = 2  # per tree
# What the CLI imports only for the commands that need it.
LAZY_IMPORTS = ("decimal", "fractions", "zlib", "mpmath")
sys.dont_write_bytecode = True  # reading bench/ and the trees leaves them as they are


def own_argvs(groups: list[str] | None) -> list[list[str]]:
    """The argvs of the chosen groups, each once, in order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import regen
    import workloads

    named = dict(regen.GROUPS)
    named["workloads"] = [list(job.argv) for w in workloads.WORKLOADS for seed in SEEDS
                          for job in workloads.generate(w, seed)]
    unknown = set(groups or ()) - named.keys()
    if unknown:
        sys.exit(f"unknown group(s) {sorted(unknown)}; the groups are {sorted(named)}")
    seen = {}
    for group in groups or named:
        for argv in named[group]:
            seen.setdefault(tuple(argv), None)
    return [list(argv) for argv in seen]


class _Digest(io.TextIOBase):
    """A text sink that keeps only the sha256 of what is written."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def _run_one(main, argv: list[str], traced: bool) -> dict:
    """The outcome of main(argv) in a forked child: exit code, the sha256
    of stdout and stderr and, when traced, the wall time and tracemalloc
    peak; or how the child ended."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
        signal.alarm(ALARM_S)
        out, err = _Digest(), _Digest()
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(argv)
            code = "returned without SystemExit"
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:  # a crash, MemoryError included
            code = f"raised {type(exc).__name__}"
        digest = {"code": code, "stdout": out.sha.hexdigest(), "stderr": err.sha.hexdigest()}
        if traced:
            digest.update(wall_s=time.perf_counter() - start,
                          peak=tracemalloc.get_traced_memory()[1])
        with os.fdopen(write, "w") as pipe:
            json.dump(digest, pipe)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if data:
        return json.loads(data)
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
        return {"code": "timeout"}
    return {"code": f"ended with status {status}"}


def _outcome(main, argv: list[str]) -> dict:
    """The traced outcome of main(argv). One that times out under tracing,
    which slows an allocating loop several times over, is run again
    untraced for its behaviour alone."""
    traced = _run_one(main, argv, True)
    return traced if traced["code"] != "timeout" else _run_one(main, argv, False)


def worker(tree: str) -> None:
    """Run each argv read as JSON from stdin through the tree's cli.main;
    write the outcomes as a JSON list."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    import apcomposites
    from apcomposites import cli

    # Load up front what the CLI loads lazily, so that a child's time and
    # traced peak are its argv's work and not the compiling of imports.
    for module in [f"apcomposites.{m.name}" for m in pkgutil.iter_modules(apcomposites.__path__)]:
        importlib.import_module(module)
    for module in LAZY_IMPORTS:
        with contextlib.suppress(ImportError):
            importlib.import_module(module)
    argvs = json.load(sys.stdin)
    json.dump([_outcome(cli.main, argv) for argv in argvs], sys.stdout)


def start_worker(tree: Path, argvs: list[list[str]]) -> subprocess.Popen:
    """A worker of the tree, given the argvs; its stdout is their outcomes."""
    proc = subprocess.Popen([sys.executable, __file__, "--worker", str(tree)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--group", action="append", help="a regen.py group, or workloads")
    parser.add_argument("--all", action="store_true", help="show every argv's time and peak")
    args = parser.parse_args()
    for tree in (args.old, args.new):
        if not (tree / "src" / "apcomposites" / "cli.py").is_file():
            sys.exit(f"{tree} holds no src/apcomposites/cli.py")
    argvs = own_argvs(args.group)
    # All at once, WORKERS per tree, each with every WORKERS-th argv: once
    # the faster tree is done, the slower one still has a worker per core.
    procs = [[start_worker(tree, argvs[i::WORKERS]) for i in range(WORKERS)]
             for tree in (args.old, args.new)]
    old, new = ([None] * len(argvs) for _ in procs)
    for side, workers in zip((old, new), procs):
        for i, proc in enumerate(workers):
            side[i::WORKERS] = json.loads(proc.stdout.read())
    if any(proc.wait() for workers in procs for proc in workers):
        sys.exit("a worker failed")
    listed = traced = grew = untraced = 0
    for argv, a, b in zip(argvs, old, new):
        name = " ".join(argv) or "<no args>"
        cost = (f"wall {a['wall_s']:.3f} -> {b['wall_s']:.3f} s, peak {a['peak'] / 2**20:.2f} -> "
                f"{b['peak'] / 2**20:.2f} MiB" if "peak" in a and "peak" in b else
                "memory not compared")
        fields = [k for k in ("code", "stdout", "stderr") if k in a and k in b and a[k] != b[k]]
        if a["code"] != b["code"] or fields:
            listed += 1
            print(f"{name}: {', '.join(fields)} differ (exit {a['code']} -> {b['code']}); {cost}")
        elif "peak" not in a or "peak" not in b:
            untraced += 1
            sides = " and ".join(side for side, o in (("old", a), ("new", b)) if "peak" not in o)
            print(f"{name}: timed out under tracing on the {sides} side; {cost}")
        else:
            traced += 1
            if b["peak"] > a["peak"] * PEAK_RATIO and b["peak"] - a["peak"] > PEAK_BYTES:
                grew += 1
                print(f"{name}: traced peak grew; {cost}")
            elif args.all:
                print(f"{name}: {cost}")
    print(f"{traced} argvs traced, {grew} with a traced-peak rise, {untraced} timed out under "
          f"tracing; wall {sum(a.get('wall_s', 0) for a in old):.1f} -> "
          f"{sum(b.get('wall_s', 0) for b in new):.1f} s")
    print(f"{len(argvs)} argvs, {listed} differ")
    sys.exit(1 if listed or grew else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        main()
