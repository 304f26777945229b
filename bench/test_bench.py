"""Self-test of the benchmark.

Run from the repository root:

    python3 -m pytest bench/test_bench.py

A smoke-size run of each workload, traced and untraced, must pass its
correctness gate, print exactly the metrics BENCHMARK.json names, and give
byte-identical canonical output per request.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from reference import NOMINAL_S
from run import Runner
from tracing import forced_at
from workloads import WORKLOADS, wrong_tolerance, binom_pmf

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int, out: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_smoke_runs_agree(workload, tmp_path):
    records = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run(workload, trace, tmp_path)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]}
        records[trace] = json.loads(
            (tmp_path / f"run-{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert None not in records[0]["sha256"]
    assert records[0]["sha256"] == records[1]["sha256"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the run must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("sim-sweep", 0, tmp_path / "out", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class Plan:
    def __init__(self, n, t):
        self.n_samples, self.t = n, t


def test_forced_at_finds_the_first_deciding_draw():
    # yes iff successes / 10 <= 0.25, i.e. at most 2 successes
    assert forced_at(Plan(10, 0.25), [(4, 3), (6, 0)]) == 4  # no is forced
    assert forced_at(Plan(10, 0.25), [(4, 0), (4, 0), (2, 1)]) == 8  # yes is forced
    assert forced_at(Plan(10, 0.25), [(4, 1), (4, 1), (2, 0)]) == 10  # open to the end


def test_wrong_tolerance_is_the_binomial_upper_quantile():
    k = wrong_tolerance(20, 0.01)
    pmf = binom_pmf(20, 0.01)
    assert sum(pmf[k + 1:]) <= 1e-4 < sum(pmf[k:])
    assert wrong_tolerance(50, 0.0) == 0


def test_each_request_is_adjusted_by_the_slices_around_it():
    workload = SimpleNamespace(group=2, reference="stream", new_checks=dict)
    runner = Runner(workload, (), trace=False)
    runner.seconds = [9.0, 9.0, 3.0, 5.0, 1.0, 2.0, 1.0, 1.0]  # the first round is the warm-up
    runner.samples = [1, 1, 10, 10, 10, 10, 10, 10]
    nominal = NOMINAL_S["stream"]
    runner.slice_seconds = [nominal, nominal, 3 * nominal]
    runner.slice_after = [2, 4, 8]
    # round means 4.0, 1.5 and 1.0; requests 4 to 7 lie between slices
    # averaging twice the nominal time, so they count half
    assert runner.median_seconds(adjusted=False) == pytest.approx(1.5)
    assert runner.median_seconds(adjusted=True) == pytest.approx(0.75)
    assert runner.median_rate(adjusted=True) == pytest.approx(20 / 1.5)
