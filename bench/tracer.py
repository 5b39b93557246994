"""Run one apcomposites CLI command with per-layer spans recorded.

    PYTHONPATH=src python bench/tracer.py TRACE.json ARGV...

behaves like ``python -m apcomposites.cli ARGV...`` (same stdout, same
exit code) and, at exit, writes TRACE.json with the import time of the
CLI, per-function call counts with total and self time, counters, and
the span list. Spans are recorded around the public functions of each
layer module (numcore, analysis, constructions, explorer, cli) from
outside the package: every module attribute bound to one of those
functions is rebound to a timing wrapper, so ``analysis.sieve`` and
``constructions.is_prime`` are traced as well as ``numcore.sieve`` and
``numcore.is_prime``. Self time is a span's duration minus the time of
the traced calls it made.

Hot leaves (HOT) are only aggregated, not kept as individual spans; at
most MAX_SPANS spans are kept per job. Aggregates always cover every call.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("numcore", "analysis", "constructions", "explorer", "cli")
METHODS = (("numcore", "PrimeTable", "count"),)
HOT = frozenset({
    "numcore.is_prime", "numcore.factorize", "numcore.PrimeTable.count",
    "numcore.prime_count", "explorer.lucky_check", "cli.as_jsonable",
    "analysis.gaussian_mass",
})
MAX_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child_time, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent_id]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def current(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
            span_id = None
            if name not in HOT and len(self.spans) < MAX_SPANS:
                span_id = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [name, 0.0, span_id]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                if span_id is not None:
                    self.spans[span_id][1:3] = [start, end]
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def _witness_count(result) -> int:
    if isinstance(result, list):
        return len(result)
    if hasattr(result, "witnesses"):
        return len(result.witnesses)
    return 1


def install(tracer: Tracer) -> dict:
    """Wraps every public function of the layer modules; returns the modules."""
    import importlib

    mods = {layer: importlib.import_module(f"apcomposites.{layer}") for layer in LAYERS}
    hooks = {
        "numcore.sieve": lambda args, t: (tracer.count("numcore.sieve.ints", t.limit + 1),
                                          tracer.count("numcore.sieve.bytes_computed",
                                                       t.membership.nbytes)),
        "numcore.is_prime": lambda args, r: tracer.count("numcore.is_prime.true", bool(r)),
        "explorer.fermat_real_root":
            lambda args, r: tracer.count("explorer.fermat_real_root.iterations", r.iterations),
    }
    wrapped = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            # Plain functions defined here: not classes, click commands or imports.
            if (attr.startswith("_") or not hasattr(fn, "__code__")
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            hook = hooks.get(name)
            if layer == "constructions":
                hook = lambda args, r: tracer.count(  # noqa: E731
                    "constructions.witnesses_emitted", _witness_count(r))
            wrapped[id(fn)] = tracer.wrap(name, fn, hook)
    for layer, cls, meth in METHODS:
        klass = getattr(mods[layer], cls)
        setattr(klass, meth, tracer.wrap(f"{layer}.{cls}.{meth}", getattr(klass, meth)))

    # Count-only probes on private helpers: bytes of the per-index arrays the
    # analysis scans materialise, and f evaluations made by rational_scan.
    # A refactor that removes a helper simply stops the count.
    analysis, explorer = mods["analysis"], mods["explorer"]
    for helper in ("_term_values", "_omega_array"):
        if hasattr(analysis, helper):
            orig = getattr(analysis, helper)

            def probe(*args, _orig=orig, **kwargs):
                arr = _orig(*args, **kwargs)
                tracer.count("analysis.term_bytes_computed", arr.nbytes)
                return arr

            setattr(analysis, helper, probe)
    if hasattr(explorer, "_fermat_f"):
        make_f = explorer._fermat_f

        def counting_fermat_f(*args):
            f = make_f(*args)

            def counted(t):
                if tracer.current() == "explorer.rational_scan":
                    tracer.count("explorer.rational_scan.candidates")
                return f(t)

            return counted

        explorer._fermat_f = counting_fermat_f

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "apcomposites" or mod_name.startswith("apcomposites."):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])
    return mods


def main(argv: list[str]) -> None:
    import json

    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import apcomposites.cli  # noqa: F401  (timed: the start-up every command pays)

    import_s = time.perf_counter() - t0
    mods = install(tracer)
    sys.argv = ["apcomposites", *cli_argv]
    try:
        mods["cli"].main()
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "stats": tracer.stats, "counts": tracer.counts,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
