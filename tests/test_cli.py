import contextlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from apcomposites import cli
from apcomposites.numcore import Progression, Record
from conftest import run_cli, traced_peak

SRC = Path(__file__).resolve().parents[1] / "src"


def records(output: str):
    return [json.loads(line) for line in output.splitlines() if line]


class TestBasicCommands:
    def test_witness_unit(self):
        res = run_cli(["witness", "unit", "--a", "2", "--b", "1", "--m", "3"])
        assert res.code == 0
        rec = records(res.out)[0]
        assert rec["result"]["n"] == 17
        assert rec["result"]["value"] == 35
        assert rec["result"]["proof"]["factors"] == [[5, 1], [7, 1]]

    def test_lucky(self):
        res = run_cli(["lucky", "--max", "100"])
        assert res.code == 0
        assert records(res.out)[0]["result"]["lucky"] == [2, 3, 5, 11, 17, 41]

    def test_density_domain_error(self):
        res = run_cli(["density", "--x", "1"])
        assert res.code == 1
        assert "x >= 2" in res.err

    def test_usage_error(self):
        res = run_cli(["nosuchcmd"])
        assert res.code == 2

    def test_capacity_error(self):
        res = run_cli(["--max-sieve", "1000", "sieve", "--limit", "100000"])
        assert res.code == 3

    def test_sieve(self):
        res = run_cli(["sieve", "--limit", "100"])
        assert records(res.out)[0]["result"] == {"count": 25, "largest": 97}

    def test_sieve_peak_memory(self):
        # One segment at a time: the count and the largest prime are read
        # off each, with no [0, limit] mask and no list of the primes.
        for limit in (10**6, 10**7):
            peak = traced_peak(lambda: run_cli(["sieve", "--limit", str(limit)]))
            assert peak <= 1 << 20, limit

    def test_count_progression(self):
        res = run_cli(["count", "--x", "20", "--a", "4", "--b", "3"])
        assert records(res.out)[0]["result"]["pi_ab"] == 4

    @pytest.mark.parametrize("args, message", [
        (["count", "--x", "0", "--a", "4", "--b", "3"], "prime_count requires x >= 1"),
        (["sweep", "pdensity", "--a", "-1", "--b", "1", "--x", "1..10"],
         "progression_composite_densities requires a >= 1"),
    ])
    def test_refusal_names_the_library_function(self, args, message):
        assert run_cli(args) == (1, "", f"error: {message}\n")

    def test_scientific_notation(self):
        res = run_cli(["count", "--x", "1e4"])
        assert records(res.out)[0]["result"]["pi"] == 1229

    def test_fermatreal(self):
        res = run_cli([
            "fermatreal", "--x", "4", "--y", "5", "--z", "6",
            "--bracket", "2,3", "--tol", "1e-12",
        ])
        out = records(res.out)[0]["result"]
        assert 2.48 < out["s"] < 2.50
        assert out["residual"] < 1e-9

    def test_ratscan_empty(self):
        res = run_cli([
            "ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "50",
        ])
        assert records(res.out)[0]["result"]["hits"] == []

    def test_ek(self):
        res = run_cli(["ek", "--x", "10000"])
        out = records(res.out)[0]["result"]
        assert out["gaussian_mass"] == pytest.approx(0.6827, abs=1e-4)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_sieve": 500}')
        res = run_cli(["--config", str(cfg), "sieve", "--limit", "10000"])
        assert res.code == 3


class TestSweeps:
    def test_density_sweep(self):
        res = run_cli(["sweep", "density", "--x", "10..1000000", "--geometric", "10"])
        recs = records(res.out)
        assert len(recs) == 7  # 6 rows + summary
        assert recs[-1]["result"]["summary"]["all_holds"] is True

    def test_dyadic_sweep(self):
        res = run_cli(["sweep", "dyadic", "--k", "2..20"])
        recs = records(res.out)
        assert recs[-1]["result"]["summary"] == {"all_holds": True, "rows": 19}

    def test_runs_sweep(self):
        res = run_cli(["sweep", "runs", "--a", "1..5", "--b", "1", "--n-max", "1e4"])
        recs = records(res.out)
        assert recs[-1]["result"]["summary"]["all_within_bound"] is True

    def test_pdensity_sweep_makes_one_pass(self, monkeypatch):
        # One sieve pass to the last point, 2**21, with the units marked:
        # one per point re-sieved [1, x] 22 times.
        from apcomposites import numcore

        passes = []
        segments = numcore._prime_segments
        monkeypatch.setattr(numcore, "_prime_segments",
                            lambda *args: passes.append(args[1:]) or segments(*args))
        res = run_cli(["sweep", "pdensity", "--a", "3", "--b", "2", "--x", "1..4e6",
                       "--geometric", "2"])
        assert res.code == 0
        assert passes == [(1, 2**21, 1)]
        assert records(res.out)[-1]["result"]["summary"]["rows"] == 22

    @pytest.mark.parametrize("lo", [0, -5])
    def test_geometric_walk_below_1_ends(self, lo):
        # 0 and a negative lo never grow past hi: lo is the only point, and
        # the first point's check refuses it.
        assert list(islice(cli.geometric_points(lo, 10, 2), 3)) == [lo]

    def test_csv_format(self):
        res = run_cli(["sweep", "dyadic", "--k", "2..6", "--format", "csv"])
        lines = res.out.splitlines()
        assert lines[0].split(",")[0] == "param"
        assert lines[-1].startswith("# summary:")

    def test_bad_range(self):
        res = run_cli(["sweep", "dyadic", "--k", "5"])
        assert res.code == 2


class TestStreaming:
    @staticmethod
    def sink_peak(args: list[str]) -> int:
        """Traced peak of `apcomposites ARGS`, exit 0, writing to a sink
        that keeps nothing, after an untraced run that loads the modules
        the command uses."""

        def run():
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                with pytest.raises(SystemExit) as exc:
                    cli.main(args)
            assert exc.value.code == 0

        run()
        return traced_peak(run)

    @pytest.mark.parametrize("fmt", ["records", "csv"])
    def test_sweep_holds_no_rows(self, fmt):
        # Each of the 3,000 rows is written as it is made, to a sink that
        # keeps nothing, so the peak is one row's, not the table's.
        args = ["sweep", "runs", "--a", "1..3000", "--b", "1", "--n-max", "1", "--format", fmt]
        assert self.sink_peak(args) <= 128 << 10

    def test_sweep_runs_keeps_no_run_starts(self):
        # At a = 3 the terms alternate in parity, so each of the 108,339
        # prime terms is a longest run. The sweep keeps one start per step;
        # keeping them all peaked at 5.2 MiB traced.
        args = ["sweep", "runs", "--a", "1..3", "--b", "1", "--n-max", "1e6"]
        assert self.sink_peak(args) <= 2 << 20

    def test_dense_sweep_holds_no_list_of_ends(self):
        # About 30,000 pi points: the segment pass reads their ends lazily,
        # where a list of them raised the traced peak to 4.7 MiB.
        args = ["sweep", "binom", "--n", "2..2e4", "--step", "1", "--format", "csv"]
        assert self.sink_peak(args) <= 4 << 20

    @pytest.mark.parametrize("args", [
        ["sweep", "binom", "--n", "2..2e4", "--step", "1"],
        ["sweep", "binom", "--n", "2..2e4", "--step", "1", "--format", "csv"],
        ["runs", "--a", "3", "--b", "1", "--n-max", "1e5"],  # one record of 0.9 MB
    ], ids=["records", "csv", "runs"])
    def test_closed_stdout_exits_141(self, args):
        # Each writes far more than a pipe holds, so it is still writing
        # when the reader closes the pipe: exit 141, as after SIGPIPE, and
        # no traceback and no domain-error exit code 1.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])}
        proc = subprocess.Popen([sys.executable, "-m", "apcomposites.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestCapacityAndDomain:
    @pytest.mark.parametrize("args, option", [
        (["dyadic", "--k", "20000"], "--k 20000"),
        (["dyadic", "--k", "1e12"], "--k 1000000000000"),
        (["sweep", "pow4", "--m", "1..10000"], "--m 10000"),
    ])
    def test_huge_power_refused_by_exponent(self, args, option):
        # 2**k and 4**m are never built: the exponent is compared with the
        # cap's bit length, and the message names the parameter, its value
        # and the cap.
        start = time.perf_counter()
        res = run_cli(args)
        assert time.perf_counter() - start < 1.0
        assert (res.code, res.out) == (3, "")
        assert f"{option.lstrip('-')} needs" in res.err
        assert "the sieve cap is 50000000" in res.err

    def test_cap_does_not_leak_out_of_main(self):
        # main sets the library's cap for its one command and restores it on
        # every exit, so in-process runs do not depend on their order.
        from apcomposites import prime_count
        from apcomposites.errors import CapacityError

        assert run_cli(["--max-sieve", "0", "count", "--x", "5"]).code == 3
        assert prime_count(10**6) == 78498
        assert run_cli(["--max-sieve", "1e9", "count", "--x", "1e8"]).code == 0
        with pytest.raises(CapacityError):
            prime_count(10**8)

    @pytest.mark.parametrize("args", [
        ["--max-sieve", "0", "ek", "--x", "2"],
        ["--max-sieve", "0", "ek", "--x", "1000", "--interval", "1,-1"],
        ["--max-sieve", "0", "sweep", "density", "--x", "0..1"],
        ["--max-sieve", "0", "sweep", "binom", "--n", "1..3"],
        ["--max-sieve", "0", "sweep", "dyadic", "--k", "1..30"],
        ["--max-sieve", "0", "sieve", "--limit", "1"],
        ["--max-sieve", "-1", "count", "--x", "0"],
        ["--max-sieve", "0", "count", "--x", "5", "--a", "0"],
        # Each check's least value - 1, single and sweep.
        ["--max-sieve", "0", "density", "--x", "1"],
        ["--max-sieve", "0", "binom", "--n", "1"],
        ["--max-sieve", "0", "dyadic", "--k", "1"],
        ["--max-sieve", "0", "pow4", "--m", "0"],
        ["--max-sieve", "0", "sweep", "density", "--x", "1..10"],
        ["--max-sieve", "0", "sweep", "pow4", "--m", "0..3"],
        # The term-scan sweeps: a step, an n_max or a first x out of domain.
        ["--max-sieve", "0", "sweep", "runs", "--a", "0..2", "--b", "1", "--n-max", "10"],
        ["--max-sieve", "0", "sweep", "runs", "--a", "-1..2", "--b", "1", "--n-max", "10"],
        ["--max-sieve", "0", "sweep", "runs", "--a", "1..2", "--b", "1", "--n-max", "0"],
        ["--max-sieve", "0", "sweep", "pdensity", "--a", "0", "--b", "1", "--x", "1..10"],
        ["--max-sieve", "0", "sweep", "pdensity", "--a", "-1", "--b", "0", "--x", "1..10"],
        ["--max-sieve", "0", "sweep", "pdensity", "--a", "1", "--b", "0", "--x", "0..10"],
    ])
    def test_domain_before_capacity(self, args):
        res = run_cli(args)
        assert (res.code, res.out) == (1, "")

    @pytest.mark.parametrize("args, largest", [
        (["density", "--x", "1000"], 1000),
        (["binom", "--n", "500"], 1000),
        (["dyadic", "--k", "10"], 1024),
        (["pow4", "--m", "5"], 1024),
        (["sweep", "density", "--x", "10..1000"], 1000),
        (["sweep", "binom", "--n", "2..500"], 1000),
        (["sweep", "dyadic", "--k", "2..10"], 1024),
        (["sweep", "pow4", "--m", "1..5"], 1024),
    ], ids=lambda v: "_".join(v[:-2]) if isinstance(v, list) else None)
    def test_power_at_the_cap(self, args, largest):
        # Accepted at --max-sieve equal to the largest pi point, refused below.
        assert run_cli(["--max-sieve", str(largest), *args]).code == 0
        assert run_cli(["--max-sieve", str(largest - 1), *args]).code == 3

    @pytest.mark.parametrize("cap, code", [(490, 0), (489, 3)])
    def test_sweep_needs_its_last_point(self, cap, code):
        # The points are 10, 70 and 490: the need is pi(490), not pi(1000).
        args = ["sweep", "density", "--x", "10..1000", "--geometric", "7"]
        assert run_cli(["--max-sieve", str(cap), *args]).code == code

    def test_huge_step_sweep_refused_before_allocation(self):
        # The last point of a step sweep is range(...)[-1], so no list of
        # its 10**15 points is built before the refusal.
        args = ["sweep", "binom", "--n", "2..1e15", "--step", "1"]
        res = []
        assert traced_peak(lambda: res.append(run_cli(args))) <= 1 << 16
        assert (res[0].code, res[0].out) == (3, "")
        assert "n 1000000000000000 needs" in res[0].err
        assert "the sieve cap is 50000000" in res[0].err

    @pytest.mark.parametrize("args, param", [
        (["runs", "--a", "1", "--b", "0", "--n-max", "101"], "n_max 101"),
        (["sweep", "runs", "--a", "1..2", "--b", "0", "--n-max", "51"], "n_max 51"),
        (["sweep", "pdensity", "--a", "1", "--b", "0", "--x", "101..101"], "x 101"),
    ])
    def test_term_scan_refusal_names_parameter_and_cap(self, args, param):
        # Refused only past max |a*n + b| = --max-sieve, as golden capacity.json pins.
        res = run_cli(["--max-sieve", "100", *args])
        assert (res.code, res.out) == (3, "")
        assert param in res.err and "the sieve cap is 100" in res.err

    @pytest.mark.parametrize("args, param", [
        (["--max-sieve", "1e6", "sweep", "runs", "--a", "1..1e9", "--b", "1", "--n-max", "10"],
         "n_max 10"),
        (["sweep", "pdensity", "--a", "1", "--b", "0", "--x", "1..1e30", "--geometric", "2"],
         "x 633825300114114700748351602688"),
    ])
    def test_term_scan_sweep_refused_before_its_points(self, args, param):
        # The sweep's largest term is checked before any point is scanned:
        # the runs sweep used to scan a = 1 .. 10**5 first.
        start = time.perf_counter()
        res = run_cli(args)
        assert time.perf_counter() - start < 1.0
        assert (res.code, res.out) == (3, "")
        assert param in res.err


    @pytest.mark.parametrize("args", [
        ["factorial", "--m", "1700"],
        ["witness", "power", "--a", "20", "--sign", "1", "--k", "3000"],
        # m! has about 973,351 digits: refused before its witnesses are built.
        ["factorial", "--m", "200000"],
        # Each refused by its builder's digit estimate, before it builds.
        ["witness", "power", "--a", "1", "--sign", "+1", "--k", "1e7"],
        ["kcomposite", "--a", "10", "--b", "1", "--k", "10000", "--count", "1"],
    ])
    def test_result_past_the_int_digit_limit(self, args):
        # json cannot write an int of more than sys.get_int_max_str_digits()
        # digits (4300 by default): refused, with nothing written.
        start = time.perf_counter()
        res = run_cli(args)
        assert time.perf_counter() - start < 1.0
        assert (res.code, res.out) == (3, "")
        assert res.err == (f"capacity error: the result holds an integer of more than "
                           f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                           "writing one as text\n")

    def test_witness_refused_as_its_product_grows_past_the_limit(self):
        # The up-front estimate lets this through: k - 1 = 199 steps, each
        # by a prime of at least a^2 + 1 = 101, give at least 399 digits.
        # The witness built would have 884, and k_composite_witnesses
        # refuses it inside the library, by its per-step digit check, as
        # the product passes 640 digits; emit is never reached.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            res = run_cli(["kcomposite", "--a", "10", "--b", "1", "--k", "200"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (res.code, res.out) == (3, "")
        assert "more than 640 digits" in res.err

    def test_emit_refuses_an_int_past_the_digit_limit(self, capsys):
        # The builders refuse first; emit's own check is the last line.
        from apcomposites.errors import CapacityError

        run = {"command": "poly", "params": {}}
        limit = sys.get_int_max_str_digits()
        with pytest.raises(CapacityError, match=f"more than {limit} digits"):
            cli.emit(run, {"value": 10**5000})
        assert capsys.readouterr().out == ""
        sys.set_int_max_str_digits(0)
        try:
            cli.emit(run, {"value": 10**5000})
            assert json.loads(capsys.readouterr().out)["result"] == {"value": 10**5000}
        finally:
            sys.set_int_max_str_digits(limit)


class TestLargeRuns:
    """Runs past what a golden record holds: 4 MB of stdout, and peak RSS,
    which only a process of the CLI's own can show."""

    # A small interpreter that starts the CLI and reads its peak with
    # os.wait4. A child's ru_maxrss starts from its spawner's RSS, so
    # spawned from pytest it would read pytest's. Its last line of stdout
    # is the CLI's exit code and peak RSS in KiB, after the CLI's stdout.
    PEAK = """if True:
        import os, sys
        pid = os.fork()
        if pid == 0:
            try:
                os.execv(sys.executable, [sys.executable, "-m", "apcomposites.cli", *sys.argv[1:]])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
    """

    @classmethod
    def peak(cls, args: list[str]) -> tuple[int, str, float]:
        """Exit code, stdout and peak RSS in MiB of `apcomposites ARGS`."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-S", "-c", cls.PEAK, *args], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        out, _, last = proc.stdout[:-1].rpartition("\n")
        code, rss_kib = map(int, last.split())
        return code, out, rss_kib / 1024

    def test_twin3_past_a_million(self):
        # Each proof is built from the twin primes just proven, so no
        # factorization bounds the scan, whose 20,000th pair is past 1e6.
        res = run_cli(["twin3", "--count", "20000", "--k-max", "2e6"], budget_s=10)
        assert (res.code, res.err) == (0, "")
        result = json.loads(res.out)["result"]
        assert (len(result["witnesses"]), result["shortfall"]) == (20000, False)

    def test_sweep_runs_keeps_one_run_start_per_step(self):
        # At a = 3 the terms alternate in parity, so every prime term is a
        # longest run: keeping each start took this sweep to 135.5 MB. It
        # keeps one per step, so its peak RSS stays near start-up's.
        code, out, rss = self.peak(["--max-sieve", "1e8", "sweep", "runs", "--a", "1..3",
                                    "--b", "1", "--n-max", "3e7"])
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["result"]["summary"]
        assert summary["all_within_bound"] is True, summary
        assert rss < 40, f"peak RSS {rss:.1f} MB"

    def test_short_range_far_from_0(self):
        # Ten indices near 1e14 sieve by the 664,579 base primes to 1e7.
        # Their terms are all far above 1e7, so no index reads the small
        # sieve, and no list of the +-q terms is built (158.1 MB with one).
        code, out, rss = self.peak(["--max-sieve", "1e15", "runs", "--a", "1",
                                    "--b", "100000000000025", "--n-max", "10"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["max_length"] == 1, result
        assert result["runs"][0]["values"] == [100000000000031], result
        assert rss < 135, f"peak RSS {rss:.1f} MB"


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["witness", "unit", "--a", "7", "--b", "-1", "--m", "4"],
        ["kcomposite", "--a", "4", "--b", "1", "--k", "3", "--count", "3"],
        ["sweep", "density", "--x", "10..100000", "--geometric", "10"],
        ["twin3", "--count", "10", "--k-max", "1000"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6"],
    ])
    def test_byte_identical_reruns(self, args):
        a = run_cli(args)
        b = run_cli(args)
        assert a.out == b.out
        assert a.code == b.code == 0


def _written_records() -> list:
    """One result of each record class the CLI writes."""
    import apcomposites as lib
    from apcomposites.constructions import DivisorPair

    scan = lib.longest_prime_run(Progression(2, 1), 100)
    return [lib.factorize(12), DivisorPair(12, 3, 4),
            lib.witness_unit_b(Progression(2, 1), 3),
            lib.k_composite_witnesses(Progression(4, 1), 2, 1)[0],
            lib.polynomial_composites([1, 1, 1], 1)[0],
            lib.consecutive_in_progression(Progression(2, 1), 3),
            lib.three_composites_4n3(2, 100), scan, scan.best, lib.prime_streak(41),
            lib.fermat_real_root(4, 5, 6, (2.0, 3.0))]


class TestSerializer:
    """`as_jsonable` writes a record as the fields its class names in _json,
    and nothing else."""

    def test_declared_fields_are_attributes_of_the_records(self):
        written = _written_records()
        declared = {cls for cls in Record.__subclasses__() if hasattr(cls, "_json")}
        assert declared == {type(r) for r in written}
        for record in written:
            fields = type(record)._json
            assert all(hasattr(record, f) for f in fields), type(record).__name__
            assert list(cli.as_jsonable(record)) == list(fields)

    # A Progression is a record that declares no fields.
    @pytest.mark.parametrize("value", [object(), {1, 2}, Fraction(1, 3), range(3),
                                       Progression(3, 2)])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(TypeError, match=f"^{type(value).__name__} is not JSON serializable$"):
            cli.as_jsonable(value)


class TestGrammar:
    @pytest.mark.parametrize("args, code, params", [
        # A value is the next item, even when it starts with "-".
        (["ek", "--x", "100", "--interval", "-1,1"], 0, {"x": 100, "interval": [-1.0, 1.0]}),
        (["poly", "--coeffs", "-3,4,1"], 0, {"coeffs": [-3, 4, 1], "count": 1}),
        (["count", "--x", "100", "--a", "4", "--b", "-1e0"], 0, {"x": 100, "a": 4, "b": -1}),
        (["count", "--x=100"], 0, {"x": 100}),
        (["count", "--x", "5", "--x", "100"], 0, {"x": 100}),  # the last repeat wins
        (["count", "--x", "1_000"], 0, {"x": 1000}),
        (["count", "--x", "100", "extra"], 2, None),
        (["count", "--x"], 2, None),
        (["count", "--max-sieve", "5", "--x", "10"], 2, None),  # root options come first
        (["count", "--y", "1", "--x", "10"], 2, None),
        (["count"], 2, None),
        ([], 2, None),
        (["witness"], 2, None),
        (["witness", "nosuch"], 2, None),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_option_grammar(self, args, code, params):
        res = run_cli(args)
        assert res.code == code
        if params is None:
            assert res.out == "" and res.err.startswith("Usage: apcomposites")
        else:
            assert records(res.out)[0]["params"] == params

    @pytest.mark.parametrize("args", [
        ["--help"], ["--max-sieve", "5", "--help"], ["sweep", "--help"],
        ["count", "--x", "abc", "--help"],
    ])
    def test_help_exits_0_on_stdout(self, args):
        res = run_cli(args)
        assert (res.code, res.err) == (0, "")
        assert res.out.startswith("Usage: apcomposites")


class TestInputParsing:
    @pytest.mark.parametrize("text, value", [
        ("1e23", 10**23),  # through float this was 99999999999999991611392
        ("1.2345678901234567891e22", 12345678901234567891000),
        ("2.5e1", 25),
    ])
    def test_exact_integers(self, text, value):
        res = run_cli(["witness", "multiple", "--a", "3", "--b", "2", "--m", text])
        assert res.code == 0
        assert records(res.out)[0]["params"]["m"] == value

    @pytest.mark.parametrize("text, value", [("1e3,1", [1000, 1]), ("-3,2.5e1,1", [-3, 25, 1])])
    def test_integer_lists(self, text, value):
        # Each element is read like any other integer option.
        res = run_cli(["poly", "--coeffs", text, "--count", "1"])
        assert res.code == 0
        assert records(res.out)[0]["params"]["coeffs"] == value

    @pytest.mark.parametrize("args", [
        ["count", "--x", "inf"],
        ["count", "--x", "-inf"],
        ["count", "--x", "nan"],
        ["count", "--x", "1e309"],  # beyond float range, as before
        ["count", "--x", "1e1000000000"],
        ["count", "--x", "2.00000000000000000001"],
        ["sweep", "density", "--x", "inf..10"],
    ])
    def test_rejects_non_integers(self, args):
        res = run_cli(args)
        assert (res.code, res.out) == (2, "")

    @pytest.mark.parametrize("args", [
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--tol", "nan"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--tol", "inf"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--bracket", "2,inf"],
        ["ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "5", "--tol", "nan"],
        ["ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "5", "--bracket", "nan,3"],
        ["ek", "--x", "100", "--interval", "nan,1"],
        ["ek", "--x", "100", "--interval", "-1,1e400"],
    ])
    def test_rejects_non_finite_floats(self, args):
        res = run_cli(args)
        assert (res.code, res.out) == (2, "")

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_rejects_non_positive_step(self, step):
        res = run_cli(["sweep", "binom", "--n", "2..10", "--step", step])
        assert (res.code, res.out) == (2, "")

    @pytest.mark.parametrize("content, detail", [
        ("[500]", "JSON object"),
        ('{"max_sieve": "abc"}', "abc"),
        ('{"max_sieve": null}', "None"),
        ('{"max_sieve": 2.7}', "2.7"),  # was silently 2
        ('{"max_sieve": 5', "line 1"),
    ])
    def test_malformed_config(self, tmp_path, content, detail):
        cfg = tmp_path / "bad.json"
        cfg.write_text(content)
        res = run_cli(["--config", str(cfg), "sieve", "--limit", "10"])
        assert res.code == 2
        assert "bad.json" in res.err and "max_sieve" in res.err
        assert detail in res.err
