import argparse
import hashlib
import json
import math
import re
import shlex
import sys

import numpy as np
import pytest

import quantcert.oracle as oracle_module
import quantcert.sim as sim_module
from quantcert import OutOfRangeError, SeedSpec, ThresholdQuery, certify_density
from quantcert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_USAGE,
    EXIT_YES,
    _parse_grid,
    build_parser,
    main,
)
from quantcert.robustness import SAMPLERS
from conftest import linear_model, linear_model_doc


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
        assert (doc["n"], doc["c"]) == (278, 40)

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
        assert doc["exact_schedule_total"] == 1_967_543
        assert doc["baseline_samples"] == 55_262_043
        assert doc["analytic_total"] == max(doc["k1"], doc["k2"], doc["k3"])


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

    # A cap of 0 samples stops the run before its first call, and a wall
    # budget of 0 ms before its first draw.
    @pytest.mark.parametrize("flag, reason", [("--max-samples", "budget-exhausted"),
                                              ("--max-wall-ms", "timeout")])
    def test_zero_budget_makes_no_call(self, capsys, flag, reason):
        code, out, _ = run(capsys, "certify", "--theta", "0.1", "--eta", "0.05", "--delta",
                           "0.1", "--bernoulli", "0.02", "--seed", "7", "--canonical", flag, "0")
        assert code == EXIT_INCONCLUSIVE
        doc = json.loads(out)
        assert doc["inconclusive_reason"] == reason and doc["calls"] == []

    def test_strategy_flag(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--strategy", "fixedcert"
        )
        assert code == EXIT_YES
        assert json.loads(out)["strategy"] == "fixedcert"

    def test_unknown_strategy_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, *self.BASE, "--bernoulli", "0.0", "--strategy", "magic"
        )
        assert code == EXIT_USAGE

    def test_negative_zero_rate_replays_as_zero(self, capsys):
        # The report records the checked rate, 0.0, not the flag's -0.0.
        query = ["certify", "--theta", "0.1", "--eta", "0.05", "--delta", "0.1", "--seed", "7"]
        negative, positive = (
            run(capsys, *query, flag, "--canonical")[1]
            for flag in ("--bernoulli=-0.0", "--bernoulli=0")
        )
        assert negative == positive
        assert math.copysign(1.0, json.loads(negative)["config"]["p"]) == 1.0

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

    # The id is older than the rule: a model file that opens but does not
    # parse is bad input, exit 64, unlike one that cannot be opened.
    def test_malformed_model_is_internal(self, capsys, tmp_path, center_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, out, err = run(
            capsys,
            "certify", *self.QUERY,
            "--model", str(bad), "--center", center_path, "--eps", "0.1",
        )
        assert code == EXIT_USAGE and out == ""
        assert re.fullmatch("quantcert: OutOfRangeError: model document is not valid JSON: .*\n",
                            err), err

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_negative_zero_center_row_replays_as_zero(self, capsys, tmp_path, model_path,
                                                      norm):
        centers = tmp_path / "signed.csv"
        centers.write_text("-0.0,0.5\n0.0,0.5\n")
        negative, positive = (
            run(capsys, "certify", *self.QUERY, "--model", model_path(0.62),
                "--center", str(centers), "--center-row", row, "--eps", "0.1",
                "--norm", norm, "--seed", "7", "--canonical")[1]
            for row in ("0", "1")
        )
        assert negative == positive
        assert json.loads(negative)["config"]["center"] == [0.0, 0.5]

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_oracle_cmd_matches_model_run(self, capsys, tmp_path, model_path, center_path,
                                          norm):
        # A child that labels like the 0.62 model gives the model run's
        # report, the note on how the ball was sampled included.
        child = tmp_path / "child.py"
        child.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(1 if float(line.split(',')[0]) > 0.62 else 0, flush=True)\n"
        )
        common = [*self.QUERY, "--center", center_path, "--eps", "0.1", "--norm", norm,
                  "--seed", "5"]
        code, out, _ = run(capsys, "certify", *common, "--model", model_path(0.62))
        by_model = json.loads(out)
        code, out, _ = run(capsys, "certify", *common, "--reference-label", "0",
                           "--oracle-cmd", shlex.join([sys.executable, str(child)]))
        by_cmd = json.loads(out)
        assert code == EXIT_YES and by_cmd["verdict"] == by_model["verdict"] == "yes"
        assert by_cmd["calls"] == by_model["calls"]
        assert by_cmd["notes"] == by_model["notes"]
        assert ("clipped ball" in by_cmd["notes"][-1]) == (norm == "l2")

    def test_canonical_output_ignores_batch_size(
        self, capsys, monkeypatch, model_path, center_path
    ):
        code, out, _ = run(
            capsys,
            "certify", *self.QUERY,
            "--model", model_path(0.55), "--center", center_path,
            "--eps", "0.1", "--seed", "17", "--canonical",
        )
        assert code in (EXIT_YES, EXIT_NO)
        assert '"wall_time_ms"' not in out
        # The oracle certify_density builds draws BATCH_WORDS // d trials at a time.
        query = ThresholdQuery(0.1, 0.05, 0.05)
        for words in (oracle_module.BATCH_WORDS, 2 * 64, 2 * 256):
            monkeypatch.setattr(oracle_module, "BATCH_WORDS", words)
            report = certify_density(
                linear_model(0.55), np.array([0.5, 0.5]), query, SeedSpec(17), 0.1
            )
            assert out == report.canonical_json() + "\n"


class TestHardness:
    QUERY = ["--theta", "0.001", "--eta", "0.001", "--delta", "0.05"]

    def test_grid_scan(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.05:0.3:0.05", "--seed", "5",
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
            "--eps-grid", "0.25,0.3", "--seed", "5",
        )
        assert code == EXIT_NO
        doc = json.loads(out)
        assert doc["hardness"] is None
        assert doc["error"] == "no-yes-found"
        assert "total_samples" not in doc
        assert len(doc["probes"]) == 1

    def test_requires_one_radius_spec(self, capsys, model_path, center_path):
        base = [
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
        ]
        code, _, err = run(capsys, *base)
        assert code == EXIT_USAGE and "--eps-grid" in err

    def test_range_flags(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.05:0.3:0.05", "--method", "bisect", "--seed", "5",
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["hardness"] == 0.2
        assert doc["method"] == "bisect"
        # bisect opens at the largest radius, then halves the bracket.
        assert [(p["epsilon"], p["verdict"]) for p in doc["probes"]] == [
            (0.3, "no"), (0.15, "yes"), (0.2, "yes"), (0.25, "no")]
        assert doc["total_samples"] == 36847

    def test_bisect_no_yes_found_ends_at_the_smallest_radius(
        self, capsys, model_path, center_path
    ):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.25,0.3", "--method", "bisect", "--seed", "5",
        )
        assert code == EXIT_NO
        doc = json.loads(out)
        assert doc["hardness"] is None and doc["error"] == "no-yes-found"
        assert [(p["epsilon"], p["verdict"]) for p in doc["probes"]] == [
            (0.3, "no"), (0.25, "no")]

    # A model that labels as the README's 2-d model does (class 1 past
    # x0 = 0.55), around (0.5, 0.5): both methods find 0.04, and bisect
    # opens at the largest radius.
    @pytest.mark.parametrize("method, probes", [
        ("sweep", [(0.02, "yes"), (0.04, "yes"), (0.1, "no")]),
        ("bisect", [(0.1, "no"), (0.02, "yes"), (0.04, "yes")]),
    ], ids=["sweep", "bisect"])
    def test_readme_model_certifies_to_0_04(self, capsys, model_path, center_path, method,
                                            probes):
        code, out, _ = run(
            capsys,
            "hardness", "--theta", "0.1", "--eta", "0.05", "--delta", "0.05", "--seed", "3",
            "--model", model_path(0.55), "--center", center_path,
            "--eps-grid", "0.02,0.04,0.1", "--method", method,
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["hardness"] == 0.04
        assert [(p["epsilon"], p["verdict"]) for p in doc["probes"]] == probes

    def test_degenerate_range_is_one_probe(self, capsys, model_path, center_path):
        code, out, _ = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "0.05:0.05:0.01", "--seed", "5",
        )
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["hardness"] == 0.05
        assert [p["epsilon"] for p in doc["probes"]] == [0.05]

    def test_non_finite_range_is_typed_error(self, capsys, model_path, center_path):
        code, out, err = run(
            capsys,
            "hardness", *self.QUERY,
            "--model", model_path(0.7), "--center", center_path,
            "--eps-grid", "nan",
        )
        assert code == EXIT_USAGE and out == ""
        assert err == "quantcert: OutOfRangeError: epsilon must sit in (0, inf), got nan\n"


class TestSimulate:
    QUERY = ["--theta", "0.3", "--eta", "0.2", "--delta", "0.1"]

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY,
            "--p-grid", "0,0.9", "--strategy", "bincert,estimate",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,theta,eta,delta,strategy,p_yes,p_no,")
        assert len(lines) == 5

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY, "--p-grid", "0.9", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["strategy"] == "bincert"
        assert doc[0]["p"] == 0.9

    def test_json_probability_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY, "--p-grid", "0,0.4", "--format", "json",
        )
        assert code == 0
        at_zero, in_band = json.loads(out)
        assert at_zero["p_yes"] == 1.0 and at_zero["p_wrong"] == 0.0
        assert in_band["p_wrong"] is None
        assert in_band["p_yes"] + in_band["p_no"] == pytest.approx(1.0)

    def test_every_strategy_errs_at_most_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--theta", "0.1", "--eta", "0.05", "--delta", "0.1",
            "--p-grid", "0.02,0.2", "--strategy", "bincert,fixedcert,estimate",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [(r["strategy"], r["p"]) for r in rows] == [
            (s, p) for s in ("bincert", "fixedcert", "estimate") for p in (0.02, 0.2)]
        assert all(0.0 <= r["p_wrong"] <= 0.1 for r in rows)

    def test_max_samples_makes_runs_inconclusive(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY, "--p-grid", "0", "--max-samples", "0",
            "--format", "json",
        )
        assert code == 0

        def no_constants(name):
            raise AssertionError(f"not JSON: {name}")

        row = json.loads(out, parse_constant=no_constants)[0]
        assert row["p_inconclusive"] == 1.0 and row["mean_samples"] == 0.0
        assert row["ratio"] is None

    def test_makes_no_draw(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("simulate read a random word")

        monkeypatch.setattr(SeedSpec, "raw_block", no_draw)
        code, out, _ = run(
            capsys,
            "simulate", *self.QUERY, "--p-grid", "0:1:0.25",
            "--strategy", "bincert,fixedcert,estimate",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 5

    @pytest.mark.parametrize("names, message", [
        ("bincert,magic", "strategy must be 'bincert' or 'fixedcert' or 'estimate', got 'magic'"),
        (",", "strategies must be nonempty"),
    ])
    def test_strategy_list_errors_are_the_library_rule(self, capsys, names, message):
        code, out, err = run(
            capsys, "simulate", *self.QUERY, "--p-grid", "0", "--strategy", names
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"quantcert: OutOfRangeError: {message}\n"

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "simulate", *self.QUERY, "--p-grid", "0,zebra"
        )
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "simulate", *self.QUERY, "--p-grid", "0:1:x")
        assert code == EXIT_USAGE and "Traceback" not in err
        code, _, err = run(capsys, "simulate", *self.QUERY, "--p-grid", "0:1:1e-5")
        assert code == EXIT_USAGE and "10000 points" in err

    # "soundness" asks for the JSON document whose p_yes/p_no/p_wrong columns
    # replaced the old soundness mode; "sweep" asks for every strategy in CSV.
    @pytest.mark.parametrize(
        "extra",
        [["--strategy", "bincert,fixedcert,estimate"], ["--format", "json"]],
        ids=["sweep", "soundness"],
    )
    def test_bad_rate_fails_before_any_run(self, capsys, monkeypatch, extra):
        laws = []
        schedule_law = sim_module.schedule_law

        def counted(*args, **kwargs):
            laws.append(args)
            return schedule_law(*args, **kwargs)

        monkeypatch.setattr(sim_module, "schedule_law", counted)
        code, _, err = run(
            capsys, "simulate", *self.QUERY, "--p-grid", "0.02,0.5,0.2,2", *extra,
        )
        assert code == EXIT_USAGE
        assert re.fullmatch(r"quantcert: OutOfRangeError: p must sit in \[0, 1\], got 2\.0\n", err)
        assert laws == []


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
        assert _parse_grid("0.5:0.5:0.1") == [0.5]

    def test_bad_specs(self):
        for text in ("0.1:0.2", "0.1:0.2:0:4", "0.3:0.1:0.1", "0.1:0.2:0", "a,b",
                     "0:1:x", "a:b:c", "nan:1:0.1", "0:inf:1", "0:1:nan", "0:1:1e-5",
                     "", ",", " , "):
            with pytest.raises(OutOfRangeError):
                _parse_grid(text)


def _edited_model(tmp_path, key, value):
    """The 0.6 model with its dense layer's key set to value, as a file."""
    doc = json.loads(linear_model_doc(0.6))
    doc["layers"][0][key] = value
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _center(tmp_path, text):
    """A center CSV holding text, as a file."""
    path = tmp_path / "centers.csv"
    path.write_text(text)
    return str(path)


QUERY = ["--theta", "0.1", "--eta", "0.05", "--delta", "0.05", "--seed", "5"]
NO_FILE = r"\[Errno 2\] No such file or directory: '.*'"
ONE_SOURCE = r"pick exactly one oracle source: --bernoulli, --model, or --oracle-cmd"
VANISHING = r"eta = 1e-200 vanishes next to theta = 0\.0: .*"
OVERFLOWING = r"the sample size bound inf is not finite; the query is too tight"

# Each row builds its argv from (tmp_path, model path, center path); leading
# NAME=value words set the environment, as in a shell.
ERROR_LINES = [
    # The four rows below once printed "quantcert: error: <message>".
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY],
        "OutOfRangeError", ONE_SOURCE, id="no-oracle-source",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model],
        "OutOfRangeError", r"--model runs need --center and --eps",
        id="model-without-center",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model,
                                    "--center", _center(tmp, "0.5,0.5,0.5\n"),
                                    "--center-row", "5", "--eps", "0.1"],
        "OutOfRangeError", r"--center-row 5 outside 0\.\.0",
        id="center-row-past-end",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *TestCertifyModel.QUERY, "--model", model,
                                    "--center", center, "--center-row", "7", "--eps", "0.1"],
        "OutOfRangeError", r"--center-row 7 outside 0\.\.1",
        id="center-row-7-of-2",
    ),
    # Blank and whitespace-only rows are not data rows.
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model,
                                    "--center", _center(tmp, "\n , \n"), "--eps", "0.1"],
        "OutOfRangeError", r".*centers\.csv holds no data rows",
        id="center-no-data-rows",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model,
                                    "--center", _center(tmp, "0.5,abc\n"), "--eps", "0.1"],
        "OutOfRangeError",
        r"non-numeric value in .*centers\.csv: could not convert string to float: 'abc'",
        id="center-non-numeric",
    ),
    pytest.param(
        lambda tmp, model, center: [*TestCertifyBernoulli.BASE, "--bernoulli", "0.0",
                                    "--model", model],
        "OutOfRangeError", ONE_SOURCE, id="two-oracle-sources",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--oracle-cmd",
                                    str(tmp / "no-such-binary"), "--center", center,
                                    "--eps", "0.1"],
        "OutOfRangeError", r"--oracle-cmd runs need --center, --eps, and --reference-label",
        id="oracle-cmd-without-reference-label",
    ),
    # A flag the chosen oracle source never reads is rejected, not ignored.
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model, "--center", center,
                                    "--eps", "0.1", "--reference-label", "3"],
        "OutOfRangeError", r"--reference-label is read only by --oracle-cmd runs",
        id="reference-label-without-oracle-cmd",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--bernoulli", "0.5",
                                    "--center", str(tmp / "nofile.csv"), "--eps", "0.3"],
        "OutOfRangeError", r"--bernoulli runs read no --center or --eps",
        id="center-with-bernoulli",
    ),
    pytest.param(
        lambda tmp, model, center: ["QUANTCERT_SEED=not-a-seed", "certify", *QUERY,
                                    "--bernoulli", "0.0"],
        "OutOfRangeError", r"QUANTCERT_SEED must be an integer, got 'not-a-seed'",
        id="bad-seed-variable",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", "--theta", "0.95", "--eta", "0.1",
                                    "--delta", "0.01", "--bernoulli", "0.0"],
        "OutOfRangeError", r"theta \+ eta = .* exceeds 1; .*",
        id="theta-eta-above-one",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", "--theta", "1.5", "--eta", "0.1",
                                    "--delta", "0.01", "--bernoulli", "0.0"],
        "OutOfRangeError", r"theta must sit in \[0, 1\], got 1\.5",
        id="theta-above-one",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model,
                                    "--center", _center(tmp, "0.5,0.5,0.5\n"), "--eps", "0.1"],
        "OutOfRangeError", r"x0 has shape \(3,\), model expects \(2,\)",
        id="center-wrong-dimension",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *TestCertifyModel.QUERY, "--model", model,
                                    "--center", center, "--eps", "nan", "--seed", "5"],
        "OutOfRangeError", r"epsilon must sit in \(0, inf\), got nan",
        id="non-finite-eps",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model",
                                    _edited_model(tmp, "bias", [math.nan, -0.6]),
                                    "--center", center, "--eps", "0.1"],
        "OutOfRangeError", r"layer 0 bias holds a NaN or infinite value",
        id="nan-weight",
    ),
    # A bool width once escaped as a TypeError traceback, exit 70.
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model",
                                    _edited_model(tmp, "cols", True),
                                    "--center", center, "--eps", "0.1"],
        "OutOfRangeError", r"dense layer 0 cols must be an integer of at least 1, got True",
        id="bool-cols",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY,
                                    "--oracle-cmd", str(tmp / "no-such-binary"),
                                    "--center", center, "--eps", "0.1",
                                    "--reference-label", "0"],
        "OracleFailure", r"could not start .*",
        id="oracle-cmd-cannot-start",
    ),
    # An empty command once reached Popen([]) and ended in an IndexError, and an
    # unclosed quote in shlex.split in a ValueError.
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--oracle-cmd", "",
                                    "--center", center, "--eps", "0.1",
                                    "--reference-label", "0"],
        "OutOfRangeError", r"the oracle command '' names no program",
        id="oracle-cmd-empty",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--oracle-cmd", "'child",
                                    "--center", center, "--eps", "0.1",
                                    "--reference-label", "0"],
        "OutOfRangeError", "the oracle command \"'child\" does not parse: No closing quotation",
        id="oracle-cmd-unclosed-quote",
    ),
    pytest.param(
        lambda tmp, model, center: ["plan", "--theta1", "0.3", "--theta2", "0.2",
                                    "--delta", "0.01"],
        "OutOfRangeError", r"need 0 <= theta1 < theta2 <= 1, got \(0\.3, 0\.2\)",
        id="plan-bad-interval",
    ),
    # A vanishing eta once ended each of these four in a ZeroDivisionError.
    pytest.param(
        lambda tmp, model, center: ["certify", "--theta", "0", "--eta", "1e-200",
                                    "--delta", "0.1", "--bernoulli", "0.5", "--seed", "1",
                                    "--strategy", "estimate"],
        "OutOfRangeError", VANISHING, id="certify-vanishing-eta",
    ),
    pytest.param(
        lambda tmp, model, center: ["budget", "--theta", "0", "--eta", "1e-200",
                                    "--delta", "0.1"],
        "OutOfRangeError", VANISHING, id="budget-vanishing-eta",
    ),
    pytest.param(
        lambda tmp, model, center: ["simulate", "--theta", "0", "--eta", "1e-200",
                                    "--delta", "0.1", "--p-grid", "0.5",
                                    "--strategy", "fixedcert"],
        "OutOfRangeError", VANISHING, id="simulate-vanishing-eta",
    ),
    pytest.param(
        lambda tmp, model, center: ["plan", "--theta1", "0", "--theta2", "1e-300",
                                    "--delta", "0.5"],
        "OutOfRangeError", r"interval \(0\.0, 1e-300\) is too narrow: .*",
        id="plan-vanishing-width",
    ),
    # 1 / eta^2 overflows while eta^2 does not: once an OverflowError, exit 70.
    pytest.param(
        lambda tmp, model, center: ["budget", "--theta", "0", "--eta", "1e-160",
                                    "--delta", "0.1"],
        "OutOfRangeError", OVERFLOWING, id="budget-overflowing-bound",
    ),
    pytest.param(
        lambda tmp, model, center: ["simulate", "--theta", "0", "--eta", "1e-160",
                                    "--delta", "0.1", "--p-grid", "0.5"],
        "OutOfRangeError", OVERFLOWING, id="simulate-overflowing-bound",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", str(tmp / "none.json"),
                                    "--center", center, "--eps", "0.1"],
        "FileNotFoundError", NO_FILE,
        id="missing-model",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--model", model,
                                    "--center", str(tmp / "none.csv"), "--eps", "0.1"],
        "FileNotFoundError", NO_FILE,
        id="missing-center",
    ),
    pytest.param(
        lambda tmp, model, center: ["certify", *QUERY, "--bernoulli", "0.0",
                                    "--out", str(tmp / "no-dir" / "report.json")],
        "FileNotFoundError", NO_FILE,
        id="unwritable-out",
    ),
]


@pytest.mark.parametrize("build, kind, message", ERROR_LINES)
def test_error_is_one_stderr_line(capsys, monkeypatch, tmp_path, model_path, center_path,
                                  build, kind, message):
    argv = build(tmp_path, model_path(0.6), center_path)
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, out, err = run(capsys, *argv)
    # A value out of range came from the caller's flags or files.
    assert code == (EXIT_USAGE if kind == "OutOfRangeError" else EXIT_INTERNAL)
    assert out == ""
    assert re.fullmatch(rf"quantcert: {kind}: {message}\n", err), err


def test_unwritable_out_fails_before_the_first_draw(capsys, tmp_path, monkeypatch):
    draws = []

    def draw(self, *args, **kwargs):
        draws.append(args)
        raise AssertionError("drew before opening --out")

    monkeypatch.setattr(oracle_module.BernoulliOracle, "draw", draw)
    code, out, err = run(capsys, "certify", *QUERY, "--bernoulli", "0.02",
                         "--out", str(tmp_path / "no-dir" / "r.json"))
    assert code == EXIT_INTERNAL and out == "" and draws == []
    assert re.fullmatch(rf"quantcert: FileNotFoundError: {NO_FILE}\n", err), err


LABELS_LIKE_0_62 = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(1 if float(line.split(',')[0]) > 0.62 else 0, flush=True)\n"
)
HARDNESS = ["hardness", *TestHardness.QUERY, "--model", "model.json", "--center",
            "center.csv", "--seed", "5"]
ORACLE_CMD = ["certify", *TestCertifyModel.QUERY, "--center", "center.csv", "--eps", "0.1",
              "--seed", "5", "--reference-label", "0", "--oracle-cmd", "./child.py",
              "--canonical"]


# sha256 of stdout and the exit code, recorded before the CLI was cut down to
# one library call and one document per subcommand, again when calls came
# to be sized by exact binomial tails, again when the final call came to
# take the budget the flank calls leave, and again when bincert's flank
# budgets came to rise toward the threshold.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        pytest.param(["plan", "--theta1", "0.1", "--theta2", "0.2", "--delta", "0.01"], 0,
                     "8cf1981dead0cf84eec207510c7838c0d963d3398fb9e4477a54644d1bbc1fae",
                     id="plan"),
        # delta_call = 1 plans a call of no trials
        pytest.param(["plan", "--theta1", "0.1", "--theta2", "0.2", "--delta", "1"], 0,
                     "edb57531151c8601ea06ccfda2fbe913852ff8a080bbaca2ada4391c8cd09f5f",
                     id="plan-delta-one"),
        pytest.param(["budget", "--theta", "0.1", "--eta", "0.001", "--delta", "0.01"], 0,
                     "50b1eff0c01e49cd6e3ae6054d1f0da51341cea567cd1ad438038cf52c184947",
                     id="budget"),
        pytest.param([*HARDNESS, "--eps-grid", "0.05:0.3:0.05"], EXIT_YES,
                     "8b845477a6777df987bddc48be84f83268a6f5071cace9bf75949c7256e07cce",
                     id="hardness-yes"),
        pytest.param([*HARDNESS, "--eps-grid", "0.25,0.3"], EXIT_NO,
                     "a9fa0d83a22205402558d7399563841f859c33db789bbee05bb6fc7e0beeef7d",
                     id="hardness-no-yes-found"),
        pytest.param([*ORACLE_CMD, "--norm", "linf"], EXIT_YES,
                     "d0ce2e3d2544d7388100fd241a5e2906d4a12ef2d860d672cbb266b560b6fb5d",
                     id="oracle-cmd-linf"),
        pytest.param([*ORACLE_CMD, "--norm", "l2"], EXIT_YES,
                     "74b10826d157aaeb9ffda735734fa86cf7164908a43f834f0123c8c56e24d62c",
                     id="oracle-cmd-l2"),
    ],
)
def test_stdout_is_pinned(capsys, monkeypatch, tmp_path, argv, code, digest):
    # Relative paths keep every byte of the report, the command included,
    # independent of where the test runs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(linear_model_doc(0.7))
    (tmp_path / "center.csv").write_text("0.5,0.5\n0.25,0.75\n")
    child = tmp_path / "child.py"
    child.write_text(f"#!{sys.executable}\n{LABELS_LIKE_0_62}")
    child.chmod(0o755)
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsageBasics:
    @pytest.mark.parametrize("command", ["certify", "hardness"])
    def test_norm_choices_are_the_sampler_table(self, capsys, command):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flag = next(a for a in subcommands.choices[command]._actions if a.dest == "norm")
        assert list(flag.choices) == list(SAMPLERS) == ["linf", "l2"]
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "--norm {linf,l2}" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--p-grid", ","],
            ["simulate", "--p-grid", "0.1", "--strategy", ","],
            ["hardness", "--model", "m.json", "--center", "c.csv", "--eps-grid", ",",
             "--seed", "1"],
        ],
    )
    def test_empty_lists_are_usage_errors(self, capsys, argv):
        query = ["--theta", "0.3", "--eta", "0.2", "--delta", "0.1"]
        code, out, err = run(capsys, *argv, *query)
        assert code == EXIT_USAGE and out == ""
        assert "Traceback" not in err

    def test_run_count_is_not_a_flag(self, capsys):
        code, out, err = run(capsys, "simulate", "--theta", "0.1", "--eta", "0.05",
                             "--delta", "0.1", "--p-grid", "0.02", "--trials", "5")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --trials 5" in err

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE
