"""Command-line surface: every library operation behind a sub-command.

Output is one strict-JSON record per line (schema_version 1, no NaN or
Infinity), keys sorted, so repeated runs with identical arguments are
byte-identical. Sweep tables can alternatively be emitted as CSV with
--format csv. The four checks of the inequality chain are declared once,
in BOUNDS, which generates both `<name>` and `sweep <name>`.

Exit codes: 0 ok, 1 domain/precondition error, 2 usage error (also a
malformed --config or a non-finite or non-integral number), 3 capacity
error; the root group maps the library's errors to them.

Each command imports the library modules it runs when it runs, so
`--help` loads none of them and `count` only numcore.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import click

from .errors import DEFAULT_SIEVE_CAP, CapacityError, DomainError

SCHEMA_VERSION = 1


class IntParam(click.ParamType):
    """Exact integer that also accepts scientific notation like 1e6; values
    beyond float range (1e1000000000) are refused, not expanded."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return int(value)
        except ValueError:
            pass
        from decimal import Decimal, InvalidOperation

        try:
            d = Decimal(value)
        except InvalidOperation:
            d = Decimal("nan")
        if not d.is_finite() or math.isinf(float(d)) or d != d.to_integral_value():
            self.fail(f"{value!r} is not an integer", param, ctx)
        return int(d)


INT = IntParam()


def finite_float(ctx, param, value) -> float:
    """Option callback: a finite float."""
    try:
        f = float(value)
    except ValueError:
        f = math.nan
    if not math.isfinite(f):
        raise click.BadParameter(f"{value!r} is not a finite number", param=param)
    return f


def pair_option(ctx, param, value) -> tuple[float, float]:
    """Option callback: 'lo,hi' as two finite floats."""
    parts = value.split(",")
    if len(parts) != 2:
        raise click.BadParameter(f"{value!r} is not 'lo,hi'", param=param)
    return finite_float(ctx, param, parts[0]), finite_float(ctx, param, parts[1])


def at_least(low: int):
    """Option callback factory: reject values below `low`."""

    def check(ctx, param, value):
        if value < low:
            raise click.BadParameter(f"must be >= {low}", ctx, param)
        return value

    return check


def int_range(ctx, param, value) -> tuple[int, int]:
    """Option callback: 'start..stop' as two integers, start <= stop."""
    parts = value.split("..")
    if len(parts) != 2:
        raise click.BadParameter(f"{value!r} is not 'start..stop'", ctx, param)
    lo, hi = (INT.convert(part, param, ctx) for part in parts)
    if lo > hi:
        raise click.BadParameter("start must be <= stop", ctx, param)
    return lo, hi


def int_list(ctx, param, value) -> list[int]:
    """Option callback: comma-separated integers."""
    try:
        return [int(c) for c in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not comma-separated integers", ctx, param)


def range_option(name: str):
    """A required 'start..stop' option, parsed by int_range."""
    return click.option(name, required=True, callback=int_range,
                        help="Range 'start..stop'.")


def geometric_points(lo: int, hi: int, factor: int):
    """lo, lo*factor, ... <= hi, lazily: for lo < 1 it never ends, and the
    caller's check must reject lo before asking for more."""
    x = lo
    while x <= hi:
        yield x
        x *= factor


def emit(result, params: dict | None = None) -> None:
    """One record of the running command; params default to its parsed
    options, all but --format."""
    ctx = click.get_current_context()
    if params is None:
        params = {k: v for k, v in ctx.params.items() if k != "fmt"}
    record = {
        "schema_version": SCHEMA_VERSION,
        # The command path without the program's name.
        "command": ctx.command_path.removeprefix(ctx.find_root().info_name).lstrip(),
        "params": params,
        "result": result,
    }
    click.echo(json.dumps(record, sort_keys=True, default=as_jsonable))


def as_jsonable(obj):
    """json.dumps hook: the JSON form of a value json cannot write itself.
    json recurses into lists, tuples and dicts, and into what this returns."""
    # A Fraction can exist only once its module is loaded.
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(obj, fractions.Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "float": float(obj)}
    # A value of these types comes from modules the command has loaded.
    from .constructions import CompositeWitness, DivisorPair, KCompositeWitness
    from .numcore import Factorization

    if isinstance(obj, Factorization):
        return {"type": "factorization", "value": obj.value, "factors": obj.factors}
    if isinstance(obj, DivisorPair):
        return {"type": "divisor_pair", "value": obj.value,
                "d": obj.d, "cofactor": obj.cofactor}
    if isinstance(obj, CompositeWitness):
        return {"a": obj.progression.a, "b": obj.progression.b, "n": obj.n,
                "value": obj.value, "tag": obj.construction_tag, "proof": obj.proof}
    if isinstance(obj, KCompositeWitness):
        return {"a": obj.progression.a, "b": obj.progression.b, "n": obj.n,
                "value": obj.value, "k": obj.k, "mode": obj.mode, "proof": obj.proof}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def check_capacity(ctx, option: str, value: int, need: tuple[int, int] | None = None) -> None:
    """Refuse `--option value` if the sieve limit mult * 2**exp it needs,
    need = (mult, exp) or else (value, 0), is beyond --max-sieve; callers
    check the domain first. An exponent beyond the cap's bit length is
    refused as it is, so 2**k is never built for a huge k."""
    cap = ctx.obj["max_sieve"]
    mult, exp = need or (value, 0)
    limit = mult << exp if exp <= max(cap, 1).bit_length() else None
    if limit is None or limit > cap:
        shown = limit if limit is not None else f"at least 2**{exp}"
        raise CapacityError(
            f"--{option} {value} needs a sieve to {shown}, --max-sieve is {cap}")


def config_max_sieve(path: str, default: int) -> int:
    """The max_sieve key of a JSON config file; a malformed file is a usage error."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        return INT.convert(str(data.get("max_sieve", default)), None, None)
    except (OSError, ValueError, TypeError, click.BadParameter) as exc:
        raise click.BadParameter(f"{path}: key 'max_sieve': {exc}", param_hint="'--config'")


class RootGroup(click.Group):
    """Root group: maps DomainError to exit 1 and CapacityError to exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        except CapacityError as exc:
            click.echo(f"capacity error: {exc}", err=True)
            ctx.exit(3)


@click.group(cls=RootGroup)
@click.option("--max-sieve", type=INT, default=None,
              help="Largest sieve limit allowed (capacity cap).")
@click.option("--config", type=click.Path(exists=True), default=None,
              help="JSON config file; recognized key: max_sieve.")
@click.pass_context
def cli(ctx, max_sieve, config):
    """Composite witnesses, prime-density bounds, and related explorations
    for arithmetic progressions a*n + b."""
    ctx.ensure_object(dict)
    cap = DEFAULT_SIEVE_CAP
    if config is not None:
        cap = config_max_sieve(config, cap)
    if max_sieve is not None:
        cap = max_sieve
    ctx.obj["max_sieve"] = cap


@cli.command("sieve")
@click.option("--limit", type=INT, required=True)
@click.pass_context
def sieve_cmd(ctx, limit):
    """Prime count and largest prime up to --limit."""
    from . import numcore

    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    check_capacity(ctx, "limit", limit)
    # One prime gap below limit: at most 220 steps for limit <= 5e7.
    largest = next(n for n in range(limit, 1, -1) if numcore.is_prime(n))
    emit({"count": numcore.prime_count(limit), "largest": largest})


@cli.command("count")
@click.option("--x", type=INT, required=True)
@click.option("--a", type=INT, default=None)
@click.option("--b", type=INT, default=None)
@click.pass_context
def count_cmd(ctx, x, a, b):
    """pi(x), or pi_{a,b}(x) when --a/--b are given."""
    from . import numcore

    if a is None and b is not None:
        raise click.UsageError("--b needs --a")
    prog = None if a is None else numcore.Progression(a, b or 0)  # refuses a = 0 before capacity
    if x >= 1:  # else the count's DomainError comes first
        check_capacity(ctx, "x", x)
    if prog is None:
        emit({"pi": numcore.prime_count(x)}, {"x": x})
    else:
        emit({"pi_ab": numcore.prime_count_progression(prog, x)},
             {"x": x, "a": a, "b": prog.b})


@cli.group("witness")
def witness_group():
    """Composite-witness constructions."""


def _witness_command(name: str, builder: str) -> None:
    @witness_group.command(name)
    @click.option("--a", type=INT, required=True)
    @click.option("--b", type=INT, required=True)
    @click.option("--m", type=INT, required=True)
    def cmd(a, b, m):
        from . import constructions
        from .numcore import Progression

        emit(getattr(constructions, builder)(Progression(a, b), m))


_witness_command("multiple", "witness_multiple_of_b")
_witness_command("unit", "witness_unit_b")


@witness_group.command("power")
@click.option("--a", type=INT, required=True)
@click.option("--sign", type=click.Choice(["+1", "-1", "1"]), required=True,
              callback=lambda ctx, param, value: int(value))
@click.option("--k", type=INT, required=True)
def witness_power_cmd(a, sign, k):
    from . import constructions

    emit(constructions.witness_power(a, sign, k))


@cli.command("factorial")
@click.option("--m", type=INT, required=True)
def factorial_cmd(m):
    """Witnesses for the consecutive composites m!+2 ... m!+m."""
    from . import constructions

    emit(constructions.factorial_consecutive(m))


@cli.command("consecutive")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--count", type=INT, required=True,
              help="How many consecutive composite terms to find.")
def consecutive_cmd(a, b, count):
    from . import constructions
    from .numcore import Progression

    res = constructions.consecutive_in_progression(Progression(a, b), count)
    emit({"start_n": res.start_n, "witnesses": res.witnesses,
          "factorial_m_bound": res.factorial_m_bound})


@cli.command("kcomposite")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--k", type=INT, required=True)
@click.option("--count", type=INT, default=1)
@click.option("--mode", type=click.Choice(["distinct", "multiplicity"]),
              default="distinct")
def kcomposite_cmd(a, b, k, count, mode):
    from . import constructions
    from .numcore import Progression

    emit(constructions.k_composite_witnesses(Progression(a, b), k, count, mode))


@cli.command("poly")
@click.option("--coeffs", required=True, callback=int_list,
              help="Comma-separated coefficients, constant term first.")
@click.option("--count", type=INT, default=1)
def poly_cmd(coeffs, count):
    from . import constructions

    emit([{"k": r.k, "j": r.j, "index": r.index, "value": r.value,
           "divisor": r.divisor}
          for r in constructions.polynomial_composites(coeffs, count)])


@cli.command("twin3")
@click.option("--count", type=INT, required=True)
@click.option("--k-max", type=INT, default=10**4)
def twin3_cmd(count, k_max):
    from . import constructions

    res = constructions.three_composites_4n3(count, k_max)
    emit({"witnesses": res.witnesses, "shortfall": res.shortfall})


@cli.command("runs")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--n-max", type=INT, required=True)
@click.pass_context
def runs_cmd(ctx, a, b, n_max):
    """Longest runs of prime values among n in [1, n_max]."""
    from . import analysis
    from .numcore import Progression

    scan = analysis.longest_prime_run(
        Progression(a, b), n_max, sieve_cap=ctx.obj["max_sieve"])
    emit({"n_max": scan.n_max, "max_length": scan.max_length,
          "runs": [{"start_n": r.start_n, "length": r.length, "values": r.values,
                    "truncated": r.truncated} for r in scan.max_runs]})


@cli.command("ek")
@click.option("--x", type=INT, required=True)
@click.option("--interval", default="-1,1", callback=pair_option,
              help="Statistic interval 'lo,hi'.")
@click.pass_context
def ek_cmd(ctx, x, interval):
    """Distinct-prime-factor statistic summary over 3 <= n <= x."""
    from . import analysis

    if x >= 3 and interval[0] <= interval[1]:  # else a DomainError comes first
        check_capacity(ctx, "x", x)
    summary = analysis.erdos_kac_samples(x, intervals=(interval,))
    iv = summary.intervals[0]
    emit({"sample_count": summary.sample_count, "mean_omega": summary.mean_omega,
          "sample_fraction": iv.sample_fraction, "gaussian_mass": iv.gaussian_mass})


@cli.command("lucky")
@click.option("--max", type=INT, required=True)
def lucky_cmd(max):
    """Constants C <= max with n^2 - n + C prime for all 1 <= n <= C-1."""
    from . import explorer

    emit({"lucky": explorer.euler_lucky_search(max)})


@cli.command("streak")
@click.option("--c", type=INT, required=True)
def streak_cmd(c):
    """Initial run of n >= 0 with n^2 + n + C prime."""
    from . import explorer

    res = explorer.prime_streak(c)
    emit({"length": res.length, "first_failure_n": res.first_failure_n,
          "first_failure_value": res.first_failure_value})


@cli.command("fermatreal")
@click.option("--x", type=INT, required=True)
@click.option("--y", type=INT, required=True)
@click.option("--z", type=INT, required=True)
@click.option("--bracket", default="2,3", callback=pair_option,
              help="Sign-change bracket 'lo,hi'.")
@click.option("--tol", type=float, default=1e-12, callback=finite_float)
def fermatreal_cmd(x, y, z, bracket, tol):
    """Bisect x^t + y^t - z^t to the stated tolerance."""
    from . import explorer

    r = explorer.fermat_real_root(x, y, z, bracket, tol)
    emit({"s": r.s, "residual": r.residual, "refined_bracket": r.refined_bracket,
          "iterations": r.iterations})


@cli.command("ratscan")
@click.option("--x", type=INT, required=True)
@click.option("--y", type=INT, required=True)
@click.option("--z", type=INT, required=True)
@click.option("--bracket", default="2,3", callback=pair_option)
@click.option("--q-max", type=INT, required=True)
@click.option("--tol", type=float, default=1e-9, callback=finite_float)
def ratscan_cmd(x, y, z, bracket, q_max, tol):
    """Rationals p/q in the bracket that nearly solve x^t + y^t = z^t."""
    from . import explorer

    root = explorer.fermat_real_root(x, y, z, bracket)
    hits = explorer.rational_scan(root, q_max, tol)
    emit({"hits": [{"p": h.numerator, "q": h.denominator} for h in hits]})


def emit_sweep(rows: list[dict], summary: dict) -> None:
    """The rows and summary of the running sweep, in its --format."""
    if click.get_current_context().params["fmt"] == "records":
        for row in rows:
            emit(row)
        emit({"summary": summary})
        return
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)
    click.echo("# summary: " + json.dumps(summary, sort_keys=True))


@cli.group("sweep")
def sweep_group():
    """Run a check over a parameter range, with a trailing summary row."""


FORMAT = click.option("--format", "fmt", type=click.Choice(["records", "csv"]),
                      default="records")
GEOMETRIC = click.option("--geometric", type=INT, default=10, callback=at_least(2),
                         help="Multiplicative step between points.")
STEP = click.option("--step", type=INT, default=1, callback=at_least(1))


def _density_row(pt) -> dict:
    return {"x": pt.x, "pi": pt.pi_x, "ratio": pt.ratio,
            "bound": pt.bound, "holds": pt.holds}


def _bound_row(bc) -> dict:
    return {"param": bc.param, "lhs": bc.lhs, "rhs": bc.rhs, "holds": bc.holds,
            **dict(bc.detail)}


@dataclass(frozen=True)
class Bound:
    """One link of the inequality chain, surfaced as `<name>` and `sweep <name>`."""

    name: str
    check: str  # analysis function; looked up per call, so rebinding it is seen
    option: str  # parameter name: --x, --n, --k or --m
    sieve_need: Callable[[int], tuple[int, int]]  # (mult, exp): a sieve to mult * 2**exp
    min_value: int  # smallest value the check accepts
    step: Callable | None  # the sweep's step option, if any
    row: Callable[[object], dict]  # check result -> output row (Fractions kept)
    doc: str


BOUNDS = (
    Bound("density", "density_bound_check", "x", lambda x: (x, 0), 2, GEOMETRIC,
          _density_row, "pi(x)/x against the bound 1/x + 4/sqrt(x) + 8/log4(x)."),
    Bound("binom", "central_binom_bound", "n", lambda n: (n, 1), 2, STEP,
          _bound_row, "Check n^(pi(2n)-pi(n)) < 4^n."),
    Bound("dyadic", "dyadic_gap_bound", "k", lambda k: (1, k), 2, None,
          _bound_row, "Check pi(2^k) - pi(2^(k-1)) < 2^k/(k-1)."),
    Bound("pow4", "pi_power4_bound", "m", lambda m: (1, 2 * m), 1, None,
          _bound_row, "Check pi(4^m) < 1 + 2^(m+1) + 2^(2m+1)/m."),
)


def _bound_commands(b: Bound) -> None:
    @cli.command(b.name, help=b.doc)
    @click.option(f"--{b.option}", type=INT, required=True)
    @click.pass_context
    def single(ctx, **kw):
        from . import analysis

        value = kw[b.option]
        if value >= b.min_value:  # else the check's DomainError comes first
            check_capacity(ctx, b.option, value, b.sieve_need(value))
        emit(b.row(getattr(analysis, b.check)(value)))

    @FORMAT
    @click.pass_context
    def sweep(ctx, fmt, **kw):
        from fractions import Fraction

        from . import analysis, numcore

        lo, hi = kw.pop(b.option)
        # kw now holds only the step option, if the sweep has one.
        if "geometric" in kw:
            points = geometric_points(lo, hi, kw["geometric"])
        else:
            points = range(lo, hi + 1, kw.get("step", 1))
        table = None
        if lo >= b.min_value:  # else the first point's DomainError comes first
            check_capacity(ctx, b.option, hi, b.sieve_need(hi))
            points = list(points)
            # One counting pass over the pi values every point's check reads.
            pi_points = analysis.PI_POINTS[b.check]
            table = numcore.prime_counts(x for p in points for x in pi_points(p))
        check = getattr(analysis, b.check)
        rows = [{k: float(v) if isinstance(v, Fraction) else v
                 for k, v in b.row(check(p, table)).items()} for p in points]
        emit_sweep(rows, {"all_holds": all(r["holds"] for r in rows), "rows": len(rows)})

    if b.step:
        sweep = b.step(sweep)
    sweep_group.command(b.name)(range_option(f"--{b.option}")(sweep))


for _bound in BOUNDS:
    _bound_commands(_bound)


@sweep_group.command("runs")
@range_option("--a")
@click.option("--b", type=INT, required=True)
@click.option("--n-max", type=INT, required=True)
@FORMAT
@click.pass_context
def sweep_runs_cmd(ctx, a, b, n_max, fmt):
    from . import analysis
    from .numcore import Progression

    lo, hi = a
    rows = []
    for a in range(lo, hi + 1):
        p = Progression(a, b)
        scan = analysis.longest_prime_run(p, n_max, sieve_cap=ctx.obj["max_sieve"])
        rows.append({"a": a, "b": b, "max_length": scan.max_length,
                     "a_squared": a * a,
                     "within_bound": scan.max_length <= a * a
                     or scan.best.start_n <= analysis.run_length_threshold(p)})
    emit_sweep(rows, {"all_within_bound": all(r["within_bound"] for r in rows),
                      "rows": len(rows)})


@sweep_group.command("pdensity")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@range_option("--x")
@GEOMETRIC
@FORMAT
@click.pass_context
def sweep_pdensity_cmd(ctx, a, b, x, geometric, fmt):
    """Composite density of |a*n+b| over n <= x, swept in x."""
    from . import analysis
    from .numcore import Progression

    rows = []
    for point in geometric_points(*x, geometric):
        frac = analysis.progression_composite_density(
            Progression(a, b), point, sieve_cap=ctx.obj["max_sieve"])
        rows.append({"x": point, "density": float(frac),
                     "num": frac.numerator, "den": frac.denominator})
    emit_sweep(rows, {"rows": len(rows), "final_density": rows[-1]["density"]})


def main():
    cli(prog_name="apcomposites")


if __name__ == "__main__":
    main()
