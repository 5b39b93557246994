"""List the CLI argvs whose behaviour differs between two source trees.

    python tests/golden/diff.py OLD NEW [--group NAME ...]

OLD and NEW are source trees, such as a checkout or a `git archive`
export; each holds `src/apcomposites`. The argvs come from the tree this
script lives in: every group of `tests/golden/regen.py`, and the job
lists of `bench/workloads.py` for each workload at seeds 1-10 (the group
`workloads`). `--group` keeps only the named groups.

Each tree runs in a worker process of its own, which imports its
`cli.main` once and forks a child per argv. The child has a 10 s
`signal.alarm` and an address space capped by `RLIMIT_AS`, so an argv
that runs away is listed as a timeout or a failure, not left to swap.
An argv is listed when its exit code, stdout sha256 or stderr sha256
differ; one that times out on both sides is a match. The last line is
the summary, and the exit code is 1 when any argv is listed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(1, 11)
ALARM_S = 10
ADDRESS_SPACE = 1 << 30
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


def _run_one(main, argv: list[str]) -> dict:
    """The outcome of main(argv) in a forked child: exit code and the
    sha256 of stdout and stderr, or how the child ended."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
        signal.alarm(ALARM_S)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(argv)
            code = "returned without SystemExit"
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:  # a crash, MemoryError included
            code = f"raised {type(exc).__name__}"
        digest = {"code": code, **{name: hashlib.sha256(s.getvalue().encode()).hexdigest()
                                   for name, s in (("stdout", out), ("stderr", err))}}
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


def worker(tree: str) -> None:
    """Run each argv read as JSON from stdin through the tree's cli.main;
    write the outcomes as a JSON list."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    from apcomposites import cli

    argvs = json.load(sys.stdin)
    json.dump([_run_one(cli.main, argv) for argv in argvs], sys.stdout)


def start_worker(tree: Path, argvs: list[list[str]]) -> subprocess.Popen:
    """The worker of one tree, given the argvs; its stdout is their outcomes."""
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
    args = parser.parse_args()
    for tree in (args.old, args.new):
        if not (tree / "src" / "apcomposites" / "cli.py").is_file():
            sys.exit(f"{tree} holds no src/apcomposites/cli.py")
    argvs = own_argvs(args.group)
    procs = [start_worker(tree, argvs) for tree in (args.old, args.new)]  # both at once
    old, new = (json.loads(proc.stdout.read()) for proc in procs)
    if any(proc.wait() for proc in procs):
        sys.exit("a worker failed")
    listed = 0
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            listed += 1
            fields = [k for k in ("code", "stdout", "stderr")
                      if k in a and k in b and a[k] != b[k]]
            print(f"{' '.join(argv) or '<no args>'}: {', '.join(fields)} differ "
                  f"(exit {a['code']} -> {b['code']})")
    print(f"{len(argvs)} argvs, {listed} differ")
    sys.exit(1 if listed else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        main()
