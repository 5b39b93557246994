import json
import time

import pytest
from click.testing import CliRunner

from apcomposites.cli import cli
from conftest import traced_peak


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


def records(output: str):
    return [json.loads(line) for line in output.splitlines() if line]


class TestBasicCommands:
    def test_witness_unit(self, runner):
        res = invoke(runner, ["witness", "unit", "--a", "2", "--b", "1", "--m", "3"])
        assert res.exit_code == 0
        rec = records(res.output)[0]
        assert rec["result"]["n"] == 17
        assert rec["result"]["value"] == 35
        assert rec["result"]["proof"]["factors"] == [[5, 1], [7, 1]]

    def test_lucky(self, runner):
        res = invoke(runner, ["lucky", "--max", "100"])
        assert res.exit_code == 0
        assert records(res.output)[0]["result"]["lucky"] == [2, 3, 5, 11, 17, 41]

    def test_density_domain_error(self, runner):
        res = runner.invoke(cli, ["density", "--x", "1"])
        assert res.exit_code == 1
        assert "x >= 2" in res.output

    def test_usage_error(self, runner):
        res = runner.invoke(cli, ["nosuchcmd"])
        assert res.exit_code == 2

    def test_capacity_error(self, runner):
        res = runner.invoke(cli, ["--max-sieve", "1000", "sieve", "--limit", "100000"])
        assert res.exit_code == 3

    def test_sieve(self, runner):
        res = invoke(runner, ["sieve", "--limit", "100"])
        assert records(res.output)[0]["result"] == {"count": 25, "largest": 97}

    def test_sieve_peak_memory(self, runner):
        # One segment at a time: the count and the largest prime are read
        # off each, with no [0, limit] mask and no list of the primes.
        for limit in (10**6, 10**7):
            peak = traced_peak(lambda: invoke(runner, ["sieve", "--limit", str(limit)]))
            assert peak <= 1 << 20, limit

    def test_count_progression(self, runner):
        res = invoke(runner, ["count", "--x", "20", "--a", "4", "--b", "3"])
        assert records(res.output)[0]["result"]["pi_ab"] == 4

    def test_scientific_notation(self, runner):
        res = invoke(runner, ["count", "--x", "1e4"])
        assert records(res.output)[0]["result"]["pi"] == 1229

    def test_fermatreal(self, runner):
        res = invoke(runner, [
            "fermatreal", "--x", "4", "--y", "5", "--z", "6",
            "--bracket", "2,3", "--tol", "1e-12",
        ])
        out = records(res.output)[0]["result"]
        assert 2.48 < out["s"] < 2.50
        assert out["residual"] < 1e-9

    def test_ratscan_empty(self, runner):
        res = invoke(runner, [
            "ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "50",
        ])
        assert records(res.output)[0]["result"]["hits"] == []

    def test_ek(self, runner):
        res = invoke(runner, ["ek", "--x", "10000"])
        out = records(res.output)[0]["result"]
        assert out["gaussian_mass"] == pytest.approx(0.6827, abs=1e-4)

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_sieve": 500}')
        res = runner.invoke(cli, ["--config", str(cfg), "sieve", "--limit", "10000"])
        assert res.exit_code == 3


class TestSweeps:
    def test_density_sweep(self, runner):
        res = invoke(runner, ["sweep", "density", "--x", "10..1000000", "--geometric", "10"])
        recs = records(res.output)
        assert len(recs) == 7  # 6 rows + summary
        assert recs[-1]["result"]["summary"]["all_holds"] is True

    def test_dyadic_sweep(self, runner):
        res = invoke(runner, ["sweep", "dyadic", "--k", "2..20"])
        recs = records(res.output)
        assert recs[-1]["result"]["summary"] == {"all_holds": True, "rows": 19}

    def test_runs_sweep(self, runner):
        res = invoke(runner, ["sweep", "runs", "--a", "1..5", "--b", "1", "--n-max", "1e4"])
        recs = records(res.output)
        assert recs[-1]["result"]["summary"]["all_within_bound"] is True

    def test_csv_format(self, runner):
        res = invoke(runner, ["sweep", "dyadic", "--k", "2..6", "--format", "csv"])
        lines = res.output.splitlines()
        assert lines[0].split(",")[0] == "param"
        assert lines[-1].startswith("# summary:")

    def test_bad_range(self, runner):
        res = runner.invoke(cli, ["sweep", "dyadic", "--k", "5"])
        assert res.exit_code == 2


class TestCapacityAndDomain:
    @pytest.mark.parametrize("args, option", [
        (["dyadic", "--k", "20000"], "--k 20000"),
        (["dyadic", "--k", "1e12"], "--k 1000000000000"),
        (["sweep", "pow4", "--m", "1..10000"], "--m 10000"),
    ])
    def test_huge_power_refused_by_exponent(self, runner, args, option):
        # 2**k and 4**m are never built: the exponent is compared with the
        # cap's bit length, and the message names the option and the cap.
        start = time.perf_counter()
        res = runner.invoke(cli, args)
        assert time.perf_counter() - start < 1.0
        assert (res.exit_code, res.stdout) == (3, "")
        assert option in res.stderr and "--max-sieve is 50000000" in res.stderr

    @pytest.mark.parametrize("args", [
        ["--max-sieve", "0", "ek", "--x", "2"],
        ["--max-sieve", "0", "ek", "--x", "1000", "--interval", "1,-1"],
        ["--max-sieve", "0", "sweep", "density", "--x", "0..1"],
        ["--max-sieve", "0", "sweep", "binom", "--n", "1..3"],
        ["--max-sieve", "0", "sweep", "dyadic", "--k", "1..30"],
        ["--max-sieve", "0", "sieve", "--limit", "1"],
        ["--max-sieve", "-1", "count", "--x", "0"],
    ])
    def test_domain_before_capacity(self, runner, args):
        res = runner.invoke(cli, args)
        assert (res.exit_code, res.stdout) == (1, "")

    def test_power_at_the_cap(self, runner):
        assert runner.invoke(cli, ["--max-sieve", "1024", "dyadic", "--k", "10"]).exit_code == 0
        assert runner.invoke(cli, ["--max-sieve", "1023", "dyadic", "--k", "10"]).exit_code == 3
        assert runner.invoke(cli, ["--max-sieve", "1024", "pow4", "--m", "5"]).exit_code == 0
        assert runner.invoke(cli, ["--max-sieve", "1023", "pow4", "--m", "5"]).exit_code == 3

    @pytest.mark.parametrize("args, param", [
        (["runs", "--a", "1", "--b", "0", "--n-max", "101"], "n_max 101"),
        (["sweep", "runs", "--a", "1..2", "--b", "0", "--n-max", "51"], "n_max 51"),
        (["sweep", "pdensity", "--a", "1", "--b", "0", "--x", "101..101"], "x 101"),
    ])
    def test_term_scan_refusal_names_parameter_and_cap(self, runner, args, param):
        # Refused only past max |a*n + b| = --max-sieve, as golden capacity.json pins.
        res = runner.invoke(cli, ["--max-sieve", "100", *args])
        assert (res.exit_code, res.stdout) == (3, "")
        assert param in res.stderr and "the sieve cap is 100" in res.stderr


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["witness", "unit", "--a", "7", "--b", "-1", "--m", "4"],
        ["kcomposite", "--a", "4", "--b", "1", "--k", "3", "--count", "3"],
        ["sweep", "density", "--x", "10..100000", "--geometric", "10"],
        ["twin3", "--count", "10", "--k-max", "1000"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6"],
    ])
    def test_byte_identical_reruns(self, runner, args):
        a = invoke(runner, args)
        b = invoke(runner, args)
        assert a.output == b.output
        assert a.exit_code == b.exit_code == 0


class TestInputParsing:
    @pytest.mark.parametrize("text, value", [
        ("1e23", 10**23),  # through float this was 99999999999999991611392
        ("1.2345678901234567891e22", 12345678901234567891000),
        ("2.5e1", 25),
    ])
    def test_exact_integers(self, runner, text, value):
        res = invoke(runner, ["witness", "multiple", "--a", "3", "--b", "2", "--m", text])
        assert res.exit_code == 0
        assert records(res.output)[0]["params"]["m"] == value

    @pytest.mark.parametrize("args", [
        ["count", "--x", "inf"],
        ["count", "--x", "-inf"],
        ["count", "--x", "nan"],
        ["count", "--x", "1e309"],  # beyond float range, as before
        ["count", "--x", "1e1000000000"],
        ["count", "--x", "2.00000000000000000001"],
        ["sweep", "density", "--x", "inf..10"],
    ])
    def test_rejects_non_integers(self, runner, args):
        res = runner.invoke(cli, args)
        assert (res.exit_code, res.stdout) == (2, "")

    @pytest.mark.parametrize("args", [
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--tol", "nan"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--tol", "inf"],
        ["fermatreal", "--x", "4", "--y", "5", "--z", "6", "--bracket", "2,inf"],
        ["ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "5", "--tol", "nan"],
        ["ratscan", "--x", "4", "--y", "5", "--z", "6", "--q-max", "5", "--bracket", "nan,3"],
        ["ek", "--x", "100", "--interval", "nan,1"],
        ["ek", "--x", "100", "--interval", "-1,1e400"],
    ])
    def test_rejects_non_finite_floats(self, runner, args):
        res = runner.invoke(cli, args)
        assert (res.exit_code, res.stdout) == (2, "")

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_rejects_non_positive_step(self, runner, step):
        res = runner.invoke(cli, ["sweep", "binom", "--n", "2..10", "--step", step])
        assert (res.exit_code, res.stdout) == (2, "")

    @pytest.mark.parametrize("content, detail", [
        ("[500]", "JSON object"),
        ('{"max_sieve": "abc"}', "abc"),
        ('{"max_sieve": null}', "None"),
        ('{"max_sieve": 2.7}', "2.7"),  # was silently 2
        ('{"max_sieve": 5', "line 1"),
    ])
    def test_malformed_config(self, runner, tmp_path, content, detail):
        cfg = tmp_path / "bad.json"
        cfg.write_text(content)
        res = runner.invoke(cli, ["--config", str(cfg), "sieve", "--limit", "10"])
        assert res.exit_code == 2
        assert "bad.json" in res.stderr and "max_sieve" in res.stderr
        assert detail in res.stderr
