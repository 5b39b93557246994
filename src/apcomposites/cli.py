"""Command-line surface: every library operation behind a sub-command.

Output is one strict-JSON record per line (schema_version 1, no NaN or
Infinity), keys sorted, so repeated runs with identical arguments are
byte-identical. Sweep tables can alternatively be emitted as CSV with
--format csv.

Every command is one entry of COMMANDS: its path (`count`, `sweep
density`), the function that runs it, its one-line doc and its options,
each (name, converter, default, help). A group (the root "", `witness`,
`sweep`) is an entry with no function. `main` parses argv against the
table: the root options first, then the command's words, then its
options as `--name value` or `--name=value` in any order, the last
repeat winning. A value is always the next argv item, even one that
starts with `-`, so `--interval -1,1` and `--b -3` parse. The four
checks of the inequality chain are listed once, in BOUNDS, and each
yields both `<name>` and `sweep <name>`; a sweep is one
`analysis.chain_sweep` call, and `sweep runs` one `analysis.run_length_bounds`
call, each of which makes its own refusals. A command whose result is
what one library function returns has no body of its own: `_record`
makes it. A result record is written as the fields its class names in
`_json`, by the one `as_jsonable`.

`main` sets the library's sieve cap (`errors.SIEVE_CAP`) from --max-sieve
or --config for the one command it runs, and restores it however it ends.

Exit codes: 0 ok, 1 domain/precondition error, 2 usage error (also a
malformed --config or a non-finite or non-integral number), 3 capacity
error, 141 stdout closed early; `main` maps the library's errors to them.

Every command reaches the library through the package's lazy names
(`lib.<name>`), which import a name's module on its first use, so
`--help` loads none of the library modules and `count` only numcore.
No library function is bound at module level, so a command calls
whatever the package or module attribute holds when it runs, as
rebound by bench/tracer.py. Only the names the package does not
export are imported from their modules.
"""

import json
import math
import sys

import apcomposites as lib

from .errors import DEFAULT_SIEVE_CAP, SIEVE_CAP, check_digits

SCHEMA_VERSION = 1
PROG = "apcomposites"
REQUIRED = object()  # the default of an option that must be given


class UsageError(Exception):
    """A command line the table does not accept: exit 2."""


class _Help(Exception):
    """--help: the page of the entry parsed so far, exit 0."""


# Converters: option text -> value, or ValueError saying why not. Each
# names its value on the help page by its metavar.


def integer(text: str) -> int:
    """Exact integer that also accepts scientific notation like 1e6; values
    beyond float range (1e1000000000) are refused, not expanded."""
    try:
        return int(text)
    except ValueError:
        pass
    from decimal import Decimal, InvalidOperation

    try:
        d = Decimal(text)
    except InvalidOperation:
        d = Decimal("nan")
    if not d.is_finite() or math.isinf(float(d)) or d != d.to_integral_value():
        raise ValueError(f"{text!r} is not an integer")
    return int(d)


def finite_float(text: str) -> float:
    """A finite float."""
    try:
        f = float(text)
    except ValueError:
        f = math.nan
    if not math.isfinite(f):
        raise ValueError(f"{text!r} is not a finite number")
    return f


def pair(text: str) -> tuple[float, float]:
    """'lo,hi' as two finite floats."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{text!r} is not 'lo,hi'")
    return finite_float(parts[0]), finite_float(parts[1])


def int_range(text: str) -> tuple[int, int]:
    """'start..stop' as two integers, start <= stop."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{text!r} is not 'start..stop'")
    lo, hi = (integer(part) for part in parts)
    if lo > hi:
        raise ValueError("start must be <= stop")
    return lo, hi


def int_list(text: str) -> list[int]:
    """Comma-separated integers, each read as by `integer`."""
    try:
        return [integer(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"{text!r} is not comma-separated integers") from None


def config_max_sieve(path: str) -> int:
    """The max_sieve key of a JSON config file, by default the default cap."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        return integer(str(data.get("max_sieve", DEFAULT_SIEVE_CAP)))
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: key 'max_sieve': {exc}") from None


def choice(*values: str, cast=str):
    """Converter factory: one of `values`, then cast."""

    def convert(text: str):
        if text not in values:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, values))}")
        return cast(text)

    convert.metavar = f"[{'|'.join(values)}]"
    return convert


def at_least(low: int):
    """Converter factory: an integer >= low."""

    def convert(text: str) -> int:
        value = integer(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value

    convert.metavar = integer.metavar
    return convert


integer.metavar = "INTEGER"
finite_float.metavar = "FLOAT"
pair.metavar = "LO,HI"
int_range.metavar = "START..STOP"
int_list.metavar = "INTEGERS"
config_max_sieve.metavar = "PATH"


def opt(name: str, convert=integer, default=REQUIRED, doc: str = "") -> tuple:
    """One option of a table entry: --name, parsed by convert."""
    return name, convert, default, doc


def range_opt(name: str) -> tuple:
    """A required 'start..stop' option."""
    return opt(name, int_range, doc="Range 'start..stop'.")


FORMAT = opt("format", choice("records", "csv"), "records")
GEOMETRIC = opt("geometric", at_least(2), 10, "Multiplicative step between points.")
STEP = opt("step", at_least(1), 1)


def geometric_points(lo: int, hi: int, factor: int):
    """lo, lo*factor, ... <= hi, lazily; a lo below 1 is the only point."""
    x = lo
    while x <= hi:
        yield x
        x = x * factor if x >= 1 else hi + 1


def emit(run: dict, result, params: dict | None = None) -> None:
    """One record of the running command; params default to its parsed
    options, all but --format. An integer past Python's int-to-str digit
    limit is refused by `check_digits`, and the record is not written."""
    if params is None:
        params = {k: v for k, v in run["params"].items() if k != "format"}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": run["command"],
        "params": params,
        "result": result,
    }
    try:
        line = json.dumps(record, sort_keys=True, default=as_jsonable)
    except ValueError:  # json's one ValueError here: an int past the digit limit
        check_digits(math.inf)
        raise
    print(line)


def as_jsonable(obj):
    """json.dumps hook: a result record as the object of the fields its
    class names in _json. json recurses into what this returns."""
    fields = getattr(type(obj), "_json", None)
    if fields is None:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {field: getattr(obj, field) for field in fields}


def emit_sweep(run: dict, rows, format: str, flag: str | None = None) -> None:
    """Each row in the sweep's --format as it is made (a sweep refuses before its first),
    then the summary folded from them: the rows, and all_<flag> or the last row's density."""
    count, every = 0, True
    for row in rows:
        if format == "records":
            emit(run, row)
        else:  # every cell is an int, float or bool, which CSV writes unquoted
            if not count:
                print(",".join(row))  # the header: the first row's keys
            print(",".join(map(str, row.values())))
        count += 1
        every = every and (flag is None or row[flag])
    summary = {"rows": count,
               **({f"all_{flag}": every} if flag else {"final_density": row["density"]})}
    if format == "records":
        emit(run, {"summary": summary})
    else:
        print("# summary: " + json.dumps(summary, sort_keys=True))


def sieve_cmd(run, limit):
    if limit < 2:
        raise lib.DomainError("sieve limit must be >= 2")
    count = lib.prime_count(limit)  # refuses past the cap, before any is_prime
    # One prime gap below limit: at most 220 steps for limit <= 5e7.
    largest = next(n for n in range(limit, 1, -1) if lib.is_prime(n))
    emit(run, {"count": count, "largest": largest})


def count_cmd(run, x, a, b):
    if a is None and b is not None:
        raise UsageError("--b needs --a")
    if a is None:
        emit(run, {"pi": lib.prime_count(x)}, {"x": x})
    else:
        prog = lib.Progression(a, b or 0)
        emit(run, {"pi_ab": lib.prime_count(x, prog)}, {"x": x, "a": a, "b": prog.b})


def _record(name: str):
    """The command that emits lib.<name> of its options, in their order; a
    leading --a and --b pass as one Progression(a, b)."""

    def cmd(run, **params):
        args = list(params.values())
        if "b" in params:
            args[:2] = [lib.Progression(*args[:2])]
        emit(run, getattr(lib, name)(*args))

    return cmd


def ek_cmd(run, x, interval):
    summary = lib.erdos_kac_samples(x, intervals=(interval,))
    iv = summary.intervals[0]
    emit(run, {"sample_count": summary.sample_count, "mean_omega": summary.mean_omega,
               "sample_fraction": iv.sample_fraction, "gaussian_mass": iv.gaussian_mass})


def lucky_cmd(run, max):
    emit(run, {"lucky": lib.euler_lucky_search(max)})


def ratscan_cmd(run, x, y, z, bracket, q_max, tol):
    root = lib.fermat_real_root(x, y, z, bracket)
    hits = lib.rational_scan(root, q_max, tol)
    emit(run, {"hits": [{"p": h.numerator, "q": h.denominator} for h in hits]})


def sweep_runs_cmd(run, a, b, n_max, format):
    from .analysis import run_length_bounds

    checks = run_length_bounds(range(a[0], a[1] + 1), b, n_max)
    emit_sweep(run, ({"a": c.param, "b": b, "max_length": c.lhs, "a_squared": c.rhs,
                      "within_bound": c.holds} for c in checks), format, "within_bound")


def sweep_pdensity_cmd(run, a, b, x, geometric, format):
    points = list(geometric_points(*x, geometric))
    fracs = lib.progression_composite_densities(lib.Progression(a, b), points)
    emit_sweep(run, ({"x": point, "density": float(frac), "num": frac.numerator,
                      "den": frac.denominator} for point, frac in zip(points, fracs)), format)


def _density_row(pt, exact: bool = True) -> dict:
    """A density check's row; a sweep's writes only the float of its ratio."""
    r = pt.ratio
    ratio = {"num": r.numerator, "den": r.denominator, "float": float(r)} if exact else float(r)
    return {"x": pt.x, "pi": pt.pi_x, "ratio": ratio, "bound": pt.bound, "holds": pt.holds}


def _bound_row(bc, exact: bool = True) -> dict:  # a BoundCheck holds no ratio
    return {"param": bc.param, "lhs": bc.lhs, "rhs": bc.rhs, "holds": bc.holds,
            **dict(bc.detail)}


# The links of the inequality chain, each surfaced as `<name>` and
# `sweep <name>`: (name, analysis function, its parameter, the sweep's
# step option, check result -> output row, doc). The function is looked
# up in the package per call, so rebinding it is seen.
BOUNDS = (
    ("density", "density_bound_check", "x", GEOMETRIC, _density_row,
     "pi(x)/x against the bound 1/x + 4/sqrt(x) + 8/log4(x)."),
    ("binom", "central_binom_bound", "n", STEP, _bound_row,
     "Check n^(pi(2n)-pi(n)) < 4^n."),
    ("dyadic", "dyadic_gap_bound", "k", None, _bound_row,
     "Check pi(2^k) - pi(2^(k-1)) < 2^k/(k-1)."),
    ("pow4", "pi_power4_bound", "m", None, _bound_row,
     "Check pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m."),
)


def _bound_entries(name, check, option, step_option, row, doc) -> tuple:
    """The `<name>` and `sweep <name>` entries of one check of the chain."""

    def single(run, **kw):
        emit(run, row(getattr(lib, check)(kw[option])))

    def sweep(run, format, geometric=None, step=1, **kw):
        from .analysis import chain_sweep

        lo, hi = kw[option]
        # A geometric walk from lo < 1 is that one point, refused by its domain.
        points = (list(geometric_points(lo, hi, geometric)) if geometric
                  else range(lo, hi + 1, step))
        emit_sweep(run, (row(c, exact=False) for c in chain_sweep(check, points)),
                   format, "holds")

    return ((name, single, doc, (opt(option),)),
            (f"sweep {name}", sweep, f"{name} over a range of --{option}.",
             (range_opt(option), *([step_option] if step_option else []), FORMAT)))


# path -> (function, doc, options); a group's function is None.
COMMANDS = {path: (fn, doc, options) for path, fn, doc, options in (
    ("", None, "Composite witnesses, prime-density bounds, and related explorations\n"
               "for arithmetic progressions a*n + b.",
     (opt("max-sieve", default=None, doc="Largest sieve limit allowed (capacity cap)."),
      opt("config", config_max_sieve, None, "JSON config file; recognized key: max_sieve."))),
    ("sieve", sieve_cmd, "Prime count and largest prime up to --limit.", (opt("limit"),)),
    ("count", count_cmd, "pi(x), or pi_{a,b}(x) when --a/--b are given.",
     (opt("x"), opt("a", default=None), opt("b", default=None))),
    ("witness", None, "Composite-witness constructions.", ()),
    ("witness multiple", _record("witness_multiple_of_b"),
     "Composite term b*(a*m + 1) of a*n + b, for |b| > 1.", (opt("a"), opt("b"), opt("m"))),
    ("witness unit", _record("witness_unit_b"),
     "Composite term (a^2 + 1)*(a*m + b) of a*n + b, for b = +-1.",
     (opt("a"), opt("b"), opt("m"))),
    ("witness power", _record("witness_power"), "Composite term (3a)^(2k+1) + sign.",
     (opt("a"), opt("sign", choice("+1", "-1", "1", cast=int)), opt("k"))),
    ("factorial", _record("factorial_consecutive"), "Witnesses for the consecutive composites m!+2 ... m!+m.",
     (opt("m"),)),
    ("consecutive", _record("consecutive_in_progression"), "Least run of --count consecutive composite terms.",
     (opt("a"), opt("b"), opt("count", doc="How many consecutive composite terms to find."))),
    ("kcomposite", _record("k_composite_witnesses"), "Terms of a*n + b with exactly k prime factors.",
     (opt("a"), opt("b"), opt("k"), opt("count", default=1),
      opt("mode", choice("distinct", "multiplicity"), "distinct"))),
    ("poly", _record("polynomial_composites"), "Composite values f(k + j*f(k)) of an integer polynomial.",
     (opt("coeffs", int_list, doc="Comma-separated, constant term first."),
      opt("count", default=1))),
    ("twin3", _record("three_composites_4n3"), "Terms 4n+3 with three prime factors, from twin primes.",
     (opt("count"), opt("k-max", default=10**4))),
    ("runs", _record("longest_prime_run"), "Longest runs of prime values among n in [1, n_max].",
     (opt("a"), opt("b"), opt("n-max"))),
    ("ek", ek_cmd, "Distinct-prime-factor statistic summary over 3 <= n <= x.",
     (opt("x"), opt("interval", pair, (-1.0, 1.0), "Statistic interval 'lo,hi'."))),
    ("lucky", lucky_cmd, "Constants C <= max with n^2 - n + C prime for 1 <= n < C.",
     (opt("max"),)),
    ("streak", _record("prime_streak"), "Initial run of n >= 0 with n^2 + n + C prime.", (opt("c"),)),
    ("fermatreal", _record("fermat_real_root"), "Bisect x^t + y^t - z^t to the stated tolerance.",
     (opt("x"), opt("y"), opt("z"),
      opt("bracket", pair, (2.0, 3.0), "Sign-change bracket 'lo,hi'."),
      opt("tol", finite_float, 1e-12))),
    ("ratscan", ratscan_cmd,
     "Rationals p/q in the bracket that nearly solve x^t + y^t = z^t.",
     (opt("x"), opt("y"), opt("z"), opt("bracket", pair, (2.0, 3.0)), opt("q-max"),
      opt("tol", finite_float, 1e-9))),
    ("sweep", None, "Run a check over a parameter range, with a trailing summary row.", ()),
    *(entry for bound in BOUNDS for entry in _bound_entries(*bound)),
    ("sweep runs", sweep_runs_cmd, "runs over a range of --a.",
     (range_opt("a"), opt("b"), opt("n-max"), FORMAT)),
    ("sweep pdensity", sweep_pdensity_cmd,
     "Composite density of |a*n+b| over n <= x, swept in x.",
     (opt("a"), opt("b"), range_opt("x"), GEOMETRIC, FORMAT)),
)}


def _take_options(options: tuple, args: list[str], i: int) -> tuple[dict, int]:
    """The option texts of args[i:] up to the first word, name -> the last
    value given, and the index of that word."""
    names = {o[0] for o in options}
    given = {}
    while i < len(args) and args[i].startswith("-"):
        if args[i] == "--help":
            raise _Help
        flag, eq, value = args[i].partition("=")
        if not flag.startswith("--") or flag[2:] not in names:
            raise UsageError(f"No such option '{flag}'.")
        if not eq:
            i += 1
            if i == len(args):
                raise UsageError(f"Option '{flag}' requires an argument.")
            value = args[i]
        given[flag[2:]] = value
        i += 1
    return given, i


def _convert(options: tuple, given: dict) -> dict:
    """Parameter name -> value of every option: converted when given, else
    its default."""
    params = {}
    for name, convert, default, _ in options:
        if name in given:
            try:
                value = convert(given[name])
            except ValueError as exc:
                raise UsageError(f"Invalid value for '--{name}': {exc}") from None
        elif default is REQUIRED:
            raise UsageError(f"Missing option '--{name}'.")
        else:
            value = default
        params[name.replace("-", "_")] = value
    return params


def _help_page(path: str) -> str:
    """The --help page of the entry at path; the root's path is ""."""
    fn, doc, options = COMMANDS[path]
    lines = [_usage(path), "", *(f"  {line}" for line in doc.splitlines()), "", "Options:"]
    lines += _columns([(f"--{name} {convert.metavar}",
                        "  ".join(filter(None, (text, "[required]" * (default is REQUIRED)))))
                       for name, convert, default, text in options]
                      + [("--help", "Show this message and exit.")])
    if fn is None:
        subs = sorted(p for p in COMMANDS if p and p.rpartition(" ")[0] == path)
        lines += ["", "Commands:",
                  *_columns([(p.rpartition(" ")[2], COMMANDS[p][1]) for p in subs])]
    return "\n".join(lines)


def _usage(path: str) -> str:
    words = " COMMAND [ARGS]..." if COMMANDS[path][0] is None else ""
    return f"Usage: {f'{PROG} {path}'.rstrip()} [OPTIONS]{words}"


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]


def main(argv: list[str] | None = None) -> None:
    """Run `apcomposites ARGV`, argv defaulting to sys.argv[1:]; always
    ends with SystemExit and the exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    path = ""
    try:
        fn, _, options = COMMANDS[path]
        given, i = _take_options(options, args, 0)
        root = _convert(options, given)
        while fn is None:  # a group: the next word names one of its entries
            if i == len(args):
                raise UsageError("Missing command.")
            sub = f"{path} {args[i]}".lstrip()
            if sub not in COMMANDS:
                raise UsageError(f"No such command '{args[i]}'.")
            path = sub
            fn, _, options = COMMANDS[path]
            given, i = _take_options(options, args, i + 1)
        if i < len(args):
            raise UsageError(f"Got unexpected extra argument ({args[i]})")
        params = _convert(options, given)
        token = SIEVE_CAP.set(next(c for c in (root["max_sieve"], root["config"],
                                               DEFAULT_SIEVE_CAP) if c is not None))
        try:
            fn({"command": path, "params": params}, **params)
            sys.stdout.flush()  # so a closed pipe shows here, not at exit
        finally:
            SIEVE_CAP.reset(token)
        code = 0
    except _Help:
        print(_help_page(path))
        code = 0
    except UsageError as exc:
        print(f"{_usage(path)}\nTry '{f'{PROG} {path}'.rstrip()} --help' for help.\n\n"
              f"Error: {exc}", file=sys.stderr)
        code = 2
    except lib.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except lib.CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        code = 3
    except BrokenPipeError:
        # The reader closed stdout: exit as after SIGPIPE, flushing to devnull.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main()
