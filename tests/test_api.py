"""The package root's export list, checked against its documented users."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import quantcert

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = ("core", "nn", "oracle", "robustness", "sim", "strategy", "tester", "cli")

EXPORTS = [
    "BernoulliOracle",
    "CallRecord",
    "CertificationReport",
    "ChildExitError",
    "DegenerateQueryError",
    "DimensionMismatchError",
    "EmptySupportError",
    "HardnessResult",
    "InvalidConfidenceError",
    "InvalidIntervalError",
    "L2BallSampler",
    "LinfBallSampler",
    "Model",
    "NoYesFoundError",
    "NonFiniteWeightError",
    "Oracle",
    "OracleFailure",
    "OutOfRangeError",
    "ParseError",
    "ProbeRecord",
    "ProtocolViolationError",
    "QuantCertError",
    "ReportInvariantError",
    "ResourceLimits",
    "RobustnessQuery",
    "SampleTally",
    "Sampler",
    "SeedSpec",
    "ShapeError",
    "SpawnFailureError",
    "SubprocessOracle",
    "TesterPlan",
    "ThresholdQuery",
    "Verdict",
    "adversarial_hardness",
    "bincert",
    "certify_density",
    "estimate_baseline",
    "fixedcert",
    "forward_batch",
    "load_model",
    "make_sampler",
    "misclassification_property",
    "predict_batch",
    "run_strategy",
]


def _readme_imports():
    names = []
    for group, line in re.findall(r"from quantcert import (?:\(([^)]*)\)|(.+))", README):
        names += [n.strip() for n in (group or line).split(",") if n.strip()]
    return names


def _bench_names():
    return {
        name
        for path in (ROOT / "bench").glob("*.py")
        for name in re.findall(r"\bqc\.(\w+)", path.read_text())
    }


def test_export_list_is_pinned():
    assert sorted(quantcert.__all__) == EXPORTS


def test_every_export_resolves():
    for name in quantcert.__all__:
        assert getattr(quantcert, name) is not None


def test_readme_and_bench_names_are_exported():
    readme, bench = _readme_imports(), _bench_names()
    assert {"bincert", "load_model"} <= set(readme) and "run_strategy" in bench
    assert set(readme) <= set(quantcert.__all__)
    assert bench <= set(quantcert.__all__)


@pytest.mark.parametrize(
    "name", ["chernoff_tail", "DomainError", "IntervalSchedule", "forward", "predict"]
)
def test_removed_names_are_gone(name):
    assert not hasattr(quantcert, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"quantcert.{module}"), name)


def test_library_quick_start_prints_pinned_counts():
    section = README.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[0] == "yes 5937"
