import json

import pytest

from quantcert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_USAGE,
    EXIT_YES,
    _parse_grid,
    main,
)
from conftest import linear_model_doc


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QUANTCERT_SEED", raising=False)


@pytest.fixture
def model_path(tmp_path):
    def write(boundary):
        path = tmp_path / f"model_{boundary}.json"
        path.write_text(linear_model_doc(boundary))
        return str(path)

    return write


@pytest.fixture
def center_path(tmp_path):
    path = tmp_path / "center.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_reference_plan(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--theta1", "0.1", "--theta2", "0.2", "--delta", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 642
        assert doc["eta1"] == pytest.approx(0.046410161513775458, rel=1e-12)
        assert doc["t"] == pytest.approx(0.146410161513775458, rel=1e-12)
        assert doc["eta2"] == pytest.approx(0.2 - 0.1 - doc["eta1"], rel=1e-12)

    def test_bad_interval_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "plan", "--theta1", "0.3", "--theta2", "0.2", "--delta", "0.01"
        )
        assert code == EXIT_INTERNAL
        assert "theta1" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "plan", "--theta1", "0.1", "--theta2", "0.2")
        assert code == EXIT_USAGE


class TestBudget:
    def test_reference_budget(self, capsys):
        code, out, _ = run(
            capsys, "budget", "--theta", "0.1", "--eta", "0.001", "--delta", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_schedule_total"] == 14_884_190
        assert doc["baseline_samples"] == 55_262_043
        assert doc["analytic_total"] == pytest.approx(
            doc["k1"] + doc["k2"] + doc["k3"]
        )


class TestCertifyBernoulli:
    BASE = ["certify", "--theta", "0.5", "--eta", "0.1", "--delta", "0.01", "--seed", "11"]

    def test_yes_exit_code(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--bernoulli", "0.0")
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["verdict"] == "yes"
        assert doc["strategy"] == "bincert"
        assert doc["seed"]["root_seed"] == 11
        assert doc["config"]["source"] == "bernoulli"

    def test_no_exit_code(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--bernoulli", "1.0")
        assert code == EXIT_NO
        assert json.loads(out)["verdict"] == "no"

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--max-samples", "5"
        )
        assert code == EXIT_INCONCLUSIVE
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert doc["inconclusive_reason"] == "budget-exhausted"

    def test_strategy_flag(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--strategy", "fixedcert"
        )
        assert code == EXIT_YES
        assert json.loads(out)["strategy"] == "fixedcert"

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, *self.BASE)
        assert code == EXIT_USAGE
        assert "exactly one oracle source" in err

    def test_two_sources_is_usage_error(self, capsys, model_path):
        code, _, err = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--model", model_path(0.6)
        )
        assert code == EXIT_USAGE

    def test_unknown_strategy_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--strategy", "magic"
        )
        assert code == EXIT_USAGE

    def test_domain_error_is_internal(self, capsys):
        code, _, err = run(
            capsys,
            "certify", "--theta", "1.5", "--eta", "0.1", "--delta", "0.01",
            "--bernoulli", "0.0",
        )
        assert code == EXIT_INTERNAL
        assert "OutOfRangeError" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--out", str(target)
        )
        assert code == EXIT_YES
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "yes"


class TestSeedResolution:
    ARGS = [
        "certify", "--theta", "0.5", "--eta", "0.1", "--delta", "0.01",
        "--bernoulli", "0.0", "--seed", "999",
    ]

    def test_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANTCERT_SEED", "123")
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_YES
        assert json.loads(out)["seed"]["root_seed"] == 123

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANTCERT_SEED", "not-a-seed")
        code, _, err = run(capsys, *self.ARGS)
        assert code == EXIT_USAGE
        assert "QUANTCERT_SEED" in err

    def test_fresh_seed_is_recorded(self, capsys):
        code, out, _ = run(capsys, *self.ARGS[:-2])
        assert code == EXIT_YES
        assert isinstance(json.loads(out)["seed"]["root_seed"], int)


class TestCertifyModel:
    QUERY = ["--theta", "0.1", "--eta", "0.05", "--delta", "0.05"]

    def test_density_yes(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "certify", *self.QUERY,
            "--model", model_path(0.62), "--center", center_path,
            "--eps", "0.1", "--seed", "5",
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["config"]["norm"] == "linf"
        assert doc["config"]["reference_label"] == 0

    def test_density_no(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "certify", *self.QUERY,
            "--model", model_path(0.45), "--center", center_path,
            "--eps", "0.1", "--seed", "5",
        )
        assert code == EXIT_NO

    def test_center_row_selection(self, capsys, model_path, center_path):
        # row 1 centers at (0.25, 0.75); the 0.45 boundary sits outside
        # its eps-box so nothing flips
        code, _, _ = run(
            capsys,
            "certify", *self.QUERY,
            "--model", model_path(0.45), "--center", center_path,
            "--center-row", "1", "--eps", "0.1", "--seed", "5",
        )
        assert code == EXIT_YES

    def test_center_row_out_of_range(self, capsys, model_path, center_path):
        code, _, err = run(
            capsys,
            "certify", *self.QUERY,
            "--model", model_path(0.62), "--center", center_path,
            "--center-row", "7", "--eps", "0.1",
        )
        assert code == EXIT_USAGE

    def test_model_without_center_is_usage_error(self, capsys, model_path):
        code, _, err = run(
            capsys, "certify", *self.QUERY, "--model", model_path(0.62)
        )
        assert code == EXIT_USAGE

    def test_missing_model_file_is_internal(self, capsys, center_path):
        code, _, _ = run(
            capsys,
            "certify", *self.QUERY,
            "--model", "/no/such/model.json", "--center", center_path,
            "--eps", "0.1",
        )
        assert code == EXIT_INTERNAL

    def test_malformed_model_is_internal(self, capsys, tmp_path, center_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(
            capsys,
            "certify", *self.QUERY,
            "--model", str(bad), "--center", center_path, "--eps", "0.1",
        )
        assert code == EXIT_INTERNAL
        assert "ParseError" in err

    def test_canonical_output_ignores_batch_size(self, capsys, model_path, center_path):
        outputs = set()
        for batch in ([], ["--batch-size", "64"], ["--batch-size", "256"]):
            code, out, _ = run(
                capsys,
                "certify", *self.QUERY,
                "--model", model_path(0.55), "--center", center_path,
                "--eps", "0.1", "--seed", "17",
                "--canonical", *batch,
            )
            assert code in (EXIT_YES, EXIT_NO)
            outputs.add(out)
        assert len(outputs) == 1
        assert '"wall_time_ms"' not in outputs.pop()


class TestHardness:
    QUERY = ["--theta", "0.001", "--eta", "0.001", "--delta", "0.05"]

    def test_grid_scan(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.05:0.3:0.05", "--seed", "5", "--batch-size", "4096",
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["hardness"] == 0.2
        assert doc["method"] == "sweep"
        assert [p["verdict"] for p in doc["probes"]] == ["yes"] * 4 + ["no"]

    def test_no_yes_found(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.25,0.3", "--seed", "5", "--batch-size", "4096",
        )
        assert code == EXIT_NO
        doc = json.loads(out)
        assert doc["hardness"] is None
        assert doc["error"] == "no-yes-found"
        assert len(doc["probes"]) == 1

    def test_requires_one_radius_spec(self, capsys, model_path, center_path):
        base = [
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
        ]
        code, _, err = run(capsys, *base)
        assert code == EXIT_USAGE
        code, _, err = run(
            capsys, *base, "--eps-grid", "0.1,0.2", "--eps-lo", "0.1"
        )
        assert code == EXIT_USAGE
        code, _, err = run(capsys, *base, "--eps-lo", "0.1")
        assert code == EXIT_USAGE and "--eps-hi" in err

    def test_range_flags(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-lo", "0.05", "--eps-hi", "0.3", "--resolution", "0.05",
            "--method", "bisect", "--seed", "5", "--batch-size", "4096",
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["hardness"] == 0.2
        assert doc["method"] == "bisect"

    def test_non_finite_range_is_typed_error(self, capsys, model_path, center_path):
        code, _, err = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-lo", "0.1", "--eps-hi", "inf", "--resolution", "0.1",
        )
        assert code == EXIT_INTERNAL
        assert "OutOfRangeError" in err and "Traceback" not in err


class TestSimulate:
    QUERY = ["--theta", "0.3", "--eta", "0.2", "--delta", "0.1"]

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY,
            "--p-grid", "0,0.9", "--trials", "2", "--seed", "3",
            "--strategy", "bincert,estimate",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,theta,eta,delta,strategy,")
        assert len(lines) == 5

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY,
            "--p-grid", "0.9", "--trials", "2", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["strategy"] == "bincert"
        assert doc[0]["p"] == 0.9

    def test_soundness_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY,
            "--p-grid", "0", "--trials", "3", "--seed", "3",
            "--mode", "soundness",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["yes_count"] == 3
        assert doc[0]["failure_rate"] == 0.0

    def test_unknown_strategy(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", *self.QUERY,
            "--p-grid", "0", "--strategy", "bincert,magic",
        )
        assert code == EXIT_USAGE
        assert "magic" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "simulate", *self.QUERY, "--p-grid", "0,zebra"
        )
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "simulate", *self.QUERY, "--p-grid", "0:1:x")
        assert code == EXIT_USAGE and "Traceback" not in err
        # --trials 0 keeps a missed size check from running a 100,001-rate sweep.
        code, _, err = run(
            capsys, "simulate", *self.QUERY, "--p-grid", "0:1:1e-5", "--trials", "0"
        )
        assert code == EXIT_USAGE and "10000 points" in err


class TestParseGrid:
    def test_comma_list(self):
        assert _parse_grid("0.1,0.2,0.5") == [0.1, 0.2, 0.5]

    def test_range_endpoints_are_exact(self):
        grid = _parse_grid("0:1:0.25")
        assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_grid("0.05:0.3:0.05")[0] == 0.05
        assert _parse_grid("0.05:0.3:0.05")[-1] == 0.3
        assert len(_parse_grid("0:0.9999:0.0001")) == 10_000

    def test_degenerate_range(self):
        assert _parse_grid("0.5:0.5:0.1") == [0.5, 0.5]

    def test_bad_specs(self):
        from quantcert.cli import UsageError

        for text in ("0.1:0.2", "0.1:0.2:0:4", "0.3:0.1:0.1", "0.1:0.2:0", "a,b",
                     "0:1:x", "a:b:c", "nan:1:0.1", "0:inf:1", "0:1:nan", "0:1:1e-5"):
            with pytest.raises(UsageError):
                _parse_grid(text)


class TestUsageBasics:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE
