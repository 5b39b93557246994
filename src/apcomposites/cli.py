"""Command-line surface: every library operation behind a sub-command.

Output is one strict-JSON record per line (schema_version 1, no NaN or
Infinity), keys sorted, so repeated runs with identical arguments are
byte-identical. Sweep tables can alternatively be emitted as CSV with
--format csv. The four checks of the inequality chain are declared once,
in BOUNDS, which generates both `<name>` and `sweep <name>`.

Exit codes: 0 ok, 1 domain/precondition error, 2 usage error (also a
malformed --config or a non-finite or non-integral number), 3 capacity
error; the root group maps the library's errors to them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable

import click

from . import analysis, constructions, explorer, numcore
from .constructions import CompositeWitness, DivisorPair, KCompositeWitness
from .errors import CapacityError, DomainError
from .numcore import Factorization, Progression

SCHEMA_VERSION = 1
DEFAULT_MAX_SIEVE = 50_000_000


class IntParam(click.ParamType):
    """Exact integer that also accepts scientific notation like 1e6; values
    beyond float range (1e1000000000) are refused, not expanded."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return int(value)
        except ValueError:
            pass
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


def parse_range(value: str, name: str) -> tuple[int, int]:
    parts = value.split("..")
    if len(parts) != 2:
        raise click.UsageError(f"{name} must be 'start..stop'")
    lo, hi = (INT.convert(part, None, None) for part in parts)
    if lo > hi:
        raise click.UsageError(f"{name}: start must be <= stop")
    return lo, hi


def geometric_points(lo: int, hi: int, factor: int):
    """lo, lo*factor, ... <= hi, lazily: for lo < 1 it never ends, and the
    caller's check must reject lo before asking for more."""
    x = lo
    while x <= hi:
        yield x
        x *= factor


def emit(command: str, params: dict, result) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "result": result,
    }
    click.echo(json.dumps(record, sort_keys=True))


def as_jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "float": float(obj)}
    if isinstance(obj, Factorization):
        return {"type": "factorization", "value": obj.value,
                "factors": [[p, e] for p, e in obj.factors]}
    if isinstance(obj, DivisorPair):
        return {"type": "divisor_pair", "value": obj.value,
                "d": obj.d, "cofactor": obj.cofactor}
    if isinstance(obj, CompositeWitness):
        return {"a": obj.progression.a, "b": obj.progression.b, "n": obj.n,
                "value": obj.value, "tag": obj.construction_tag,
                "proof": as_jsonable(obj.proof)}
    if isinstance(obj, KCompositeWitness):
        return {"a": obj.progression.a, "b": obj.progression.b, "n": obj.n,
                "value": obj.value, "k": obj.k, "mode": obj.mode,
                "proof": as_jsonable(obj.proof)}
    return obj


def check_capacity(ctx, option: str, value: int, need: tuple[int, int] | None = None) -> int:
    """The sieve limit mult * 2**exp, need = (mult, exp) or else (value, 0),
    that `--option value` needs, if within --max-sieve; callers check the
    domain first. An exponent beyond the cap's bit length is refused as it
    is, so 2**k is never built for a huge k."""
    cap = ctx.obj["max_sieve"]
    mult, exp = need or (value, 0)
    limit = mult << exp if exp <= max(cap, 1).bit_length() else None
    if limit is None or limit > cap:
        shown = limit if limit is not None else f"at least 2**{exp}"
        raise CapacityError(
            f"--{option} {value} needs a sieve to {shown}, --max-sieve is {cap}")
    return limit


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
    cap = DEFAULT_MAX_SIEVE
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
    if limit >= 2:  # else the sieve's DomainError comes first
        check_capacity(ctx, "limit", limit)
    table = numcore.sieve(limit)
    primes = table.primes()
    emit("sieve", {"limit": limit},
         {"count": int(len(primes)), "largest": int(primes[-1])})


@cli.command("count")
@click.option("--x", type=INT, required=True)
@click.option("--a", type=INT, default=None)
@click.option("--b", type=INT, default=None)
@click.pass_context
def count_cmd(ctx, x, a, b):
    """pi(x), or pi_{a,b}(x) when --a/--b are given."""
    if x >= 1:  # else the count's DomainError comes first
        check_capacity(ctx, "x", x)
    if a is None:
        emit("count", {"x": x}, {"pi": numcore.prime_count(x)})
    else:
        prog = Progression(a, b or 0)
        emit("count", {"x": x, "a": a, "b": prog.b},
             {"pi_ab": numcore.prime_count_progression(prog, x)})


@cli.group("witness")
def witness_group():
    """Composite-witness constructions."""


def _witness_command(name: str, builder: str) -> None:
    @witness_group.command(name)
    @click.option("--a", type=INT, required=True)
    @click.option("--b", type=INT, required=True)
    @click.option("--m", type=INT, required=True)
    def cmd(a, b, m):
        w = getattr(constructions, builder)(Progression(a, b), m)
        emit(f"witness {name}", {"a": a, "b": b, "m": m}, as_jsonable(w))


_witness_command("multiple", "witness_multiple_of_b")
_witness_command("unit", "witness_unit_b")


@witness_group.command("power")
@click.option("--a", type=INT, required=True)
@click.option("--sign", type=click.Choice(["+1", "-1", "1"]), required=True)
@click.option("--k", type=INT, required=True)
def witness_power_cmd(a, sign, k):
    w = constructions.witness_power(a, int(sign), k)
    emit("witness power", {"a": a, "sign": int(sign), "k": k}, as_jsonable(w))


@cli.command("factorial")
@click.option("--m", type=INT, required=True)
def factorial_cmd(m):
    """Witnesses for the consecutive composites m!+2 ... m!+m."""
    ws = constructions.factorial_consecutive(m)
    emit("factorial", {"m": m}, [as_jsonable(w) for w in ws])


@cli.command("consecutive")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--count", "n_consecutive", type=INT, required=True,
              help="How many consecutive composite terms to find.")
def consecutive_cmd(a, b, n_consecutive):
    res = constructions.consecutive_in_progression(Progression(a, b), n_consecutive)
    emit("consecutive", {"a": a, "b": b, "count": n_consecutive},
         {"start_n": res.start_n,
          "witnesses": [as_jsonable(w) for w in res.witnesses],
          "factorial_m_bound": res.factorial_m_bound})


@cli.command("kcomposite")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--k", type=INT, required=True)
@click.option("--count", type=INT, default=1)
@click.option("--mode", type=click.Choice(["distinct", "multiplicity"]),
              default="distinct")
def kcomposite_cmd(a, b, k, count, mode):
    ws = constructions.k_composite_witnesses(Progression(a, b), k, count, mode)
    emit("kcomposite", {"a": a, "b": b, "k": k, "count": count, "mode": mode},
         [as_jsonable(w) for w in ws])


@cli.command("poly")
@click.option("--coeffs", required=True,
              help="Comma-separated coefficients, constant term first.")
@click.option("--count", type=INT, default=1)
def poly_cmd(coeffs, count):
    try:
        cs = [int(c) for c in coeffs.split(",")]
    except ValueError:
        raise click.UsageError("--coeffs must be comma-separated integers")
    recs = constructions.polynomial_composites(cs, count)
    emit("poly", {"coeffs": cs, "count": count},
         [{"k": r.k, "j": r.j, "index": r.index, "value": r.value,
           "divisor": r.divisor} for r in recs])


@cli.command("twin3")
@click.option("--count", type=INT, required=True)
@click.option("--k-max", type=INT, default=10**4)
def twin3_cmd(count, k_max):
    res = constructions.three_composites_4n3(count, k_max)
    emit("twin3", {"count": count, "k_max": k_max},
         {"witnesses": [as_jsonable(w) for w in res.witnesses],
          "shortfall": res.shortfall})


def _run_payload(scan) -> dict:
    return {
        "n_max": scan.n_max,
        "max_length": scan.max_length,
        "runs": [
            {"start_n": r.start_n, "length": r.length,
             "values": list(r.values), "truncated": r.truncated}
            for r in scan.max_runs
        ],
    }


@cli.command("runs")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--n-max", type=INT, required=True)
@click.pass_context
def runs_cmd(ctx, a, b, n_max):
    """Longest runs of prime values among n in [1, n_max]."""
    scan = analysis.longest_prime_run(
        Progression(a, b), n_max, sieve_cap=ctx.obj["max_sieve"])
    emit("runs", {"a": a, "b": b, "n_max": n_max}, _run_payload(scan))


@cli.command("ek")
@click.option("--x", type=INT, required=True)
@click.option("--interval", default="-1,1", callback=pair_option,
              help="Statistic interval 'lo,hi'.")
@click.pass_context
def ek_cmd(ctx, x, interval):
    """Distinct-prime-factor statistic summary over 3 <= n <= x."""
    if x >= 3:  # else the summary's DomainError comes first
        check_capacity(ctx, "x", x)
    summary = analysis.erdos_kac_samples(x, intervals=(interval,))
    iv = summary.intervals[0]
    emit("ek", {"x": x, "interval": list(interval)},
         {"sample_count": summary.sample_count,
          "mean_omega": summary.mean_omega,
          "sample_fraction": iv.sample_fraction,
          "gaussian_mass": iv.gaussian_mass})


@cli.command("lucky")
@click.option("--max", "c_max", type=INT, required=True)
def lucky_cmd(c_max):
    """Constants C <= max with n^2 - n + C prime for all 1 <= n <= C-1."""
    emit("lucky", {"max": c_max}, {"lucky": explorer.euler_lucky_search(c_max)})


@cli.command("streak")
@click.option("--c", type=INT, required=True)
def streak_cmd(c):
    """Initial run of n >= 0 with n^2 + n + C prime."""
    res = explorer.prime_streak(c)
    emit("streak", {"c": c},
         {"length": res.length, "first_failure_n": res.first_failure_n,
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
    r = explorer.fermat_real_root(x, y, z, bracket, tol)
    emit("fermatreal",
         {"x": x, "y": y, "z": z, "bracket": list(bracket), "tol": tol},
         {"s": r.s, "residual": r.residual,
          "refined_bracket": list(r.refined_bracket),
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
    root = explorer.fermat_real_root(x, y, z, bracket)
    hits = explorer.rational_scan(root, q_max, tol)
    emit("ratscan",
         {"x": x, "y": y, "z": z, "bracket": list(bracket),
          "q_max": q_max, "tol": tol},
         {"hits": [{"p": h.numerator, "q": h.denominator} for h in hits]})


def emit_sweep(command: str, params: dict, rows: list[dict],
               summary: dict, fmt: str) -> None:
    if fmt == "records":
        for row in rows:
            emit(command, params, row)
        emit(command, params, {"summary": summary})
        return
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
        value = kw[b.option]
        if value >= b.min_value:  # else the check's DomainError comes first
            check_capacity(ctx, b.option, value, b.sieve_need(value))
        result = getattr(analysis, b.check)(value)
        emit(b.name, kw, {k: as_jsonable(v) for k, v in b.row(result).items()})

    @FORMAT
    @click.pass_context
    def sweep(ctx, fmt, **kw):
        lo, hi = parse_range(kw.pop(f"{b.option}_range"), f"--{b.option}")
        table = None
        if lo >= b.min_value:  # else the first point's DomainError comes first
            table = numcore.sieve(check_capacity(ctx, b.option, hi, b.sieve_need(hi)))
        # kw now holds only the step option, if the sweep has one.
        if "geometric" in kw:
            points = geometric_points(lo, hi, kw["geometric"])
        else:
            points = range(lo, hi + 1, kw.get("step", 1))
        check = getattr(analysis, b.check)
        rows = [{k: float(v) if isinstance(v, Fraction) else v
                 for k, v in b.row(check(p, table)).items()} for p in points]
        summary = {"all_holds": all(r["holds"] for r in rows), "rows": len(rows)}
        emit_sweep(f"sweep {b.name}", {b.option: [lo, hi], **kw}, rows, summary, fmt)

    if b.step:
        sweep = b.step(sweep)
    range_option = click.option(f"--{b.option}", f"{b.option}_range", required=True,
                                help="Range 'start..stop'.")
    sweep_group.command(b.name)(range_option(sweep))


for _bound in BOUNDS:
    _bound_commands(_bound)


@sweep_group.command("runs")
@click.option("--a", "a_range", required=True, help="Range 'start..stop'.")
@click.option("--b", type=INT, required=True)
@click.option("--n-max", type=INT, required=True)
@FORMAT
@click.pass_context
def sweep_runs_cmd(ctx, a_range, b, n_max, fmt):
    lo, hi = parse_range(a_range, "--a")
    rows = []
    for a in range(lo, hi + 1):
        p = Progression(a, b)
        scan = analysis.longest_prime_run(p, n_max, sieve_cap=ctx.obj["max_sieve"])
        rows.append({"a": a, "b": b, "max_length": scan.max_length,
                     "a_squared": a * a,
                     "within_bound": scan.max_length <= a * a
                     or scan.best.start_n <= analysis.run_length_threshold(p)})
    summary = {"all_within_bound": all(r["within_bound"] for r in rows),
               "rows": len(rows)}
    emit_sweep("sweep runs", {"a": [lo, hi], "b": b, "n_max": n_max},
               rows, summary, fmt)


@sweep_group.command("pdensity")
@click.option("--a", type=INT, required=True)
@click.option("--b", type=INT, required=True)
@click.option("--x", "x_range", required=True, help="Range 'start..stop'.")
@GEOMETRIC
@FORMAT
@click.pass_context
def sweep_pdensity_cmd(ctx, a, b, x_range, geometric, fmt):
    """Composite density of |a*n+b| over n <= x, swept in x."""
    lo, hi = parse_range(x_range, "--x")
    rows = []
    for x in geometric_points(lo, hi, geometric):
        frac = analysis.progression_composite_density(
            Progression(a, b), x, sieve_cap=ctx.obj["max_sieve"])
        rows.append({"x": x, "density": float(frac),
                     "num": frac.numerator, "den": frac.denominator})
    summary = {"rows": len(rows), "final_density": rows[-1]["density"]}
    emit_sweep("sweep pdensity", {"a": a, "b": b, "x": [lo, hi],
                                  "geometric": geometric},
               rows, summary, fmt)


def main():
    cli(prog_name="apcomposites")


if __name__ == "__main__":
    main()
