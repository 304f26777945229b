"""The package's public surface, checked against its documented users."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import quantcert
from quantcert.cli import EXIT_USAGE, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = ("core", "nn", "oracle", "robustness", "sim", "strategy", "tester", "cli")

# Names that left the package root, each with the module that defines it.
MOVED = [
    ("Call", "strategy"),
    ("CallRecord", "strategy"),
    ("CertificationReport", "strategy"),
    ("TesterPlan", "tester"),
    ("HardnessResult", "robustness"),
    ("ProbeRecord", "robustness"),
    ("LinfBallSampler", "robustness"),
    ("L2BallSampler", "robustness"),
    ("Model", "nn"),
    ("forward_batch", "nn"),
    ("predict_batch", "nn"),
    ("Oracle", "oracle"),
    ("SampleTally", "core"),
    ("Verdict", "core"),
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


def _subclasses(cls):
    return [sub for direct in cls.__subclasses__() for sub in [direct, *_subclasses(direct)]]


def test_export_list_is_pinned():
    # The root's rule: what README examples and the bench import (the types a
    # caller builds to pass in among them), and the QuantCertError tree.
    errors = {cls.__name__ for cls in [quantcert.QuantCertError,
                                       *_subclasses(quantcert.QuantCertError)]}
    assert sorted(quantcert.__all__) == sorted(set(_readme_imports()) | _bench_names() | errors)


def test_every_export_resolves():
    for name in quantcert.__all__:
        assert getattr(quantcert, name) is not None


def test_readme_and_bench_names_are_exported():
    readme, bench = _readme_imports(), _bench_names()
    assert {"run_strategy", "load_model", "ResourceLimits", "TrialOutcomes"} <= set(readme)
    assert "run_strategy" in bench
    assert set(readme) <= set(quantcert.__all__)
    assert bench <= set(quantcert.__all__)


# One import path per name: no root attribute, alias or __getattr__ reaches it.
@pytest.mark.parametrize("name, module", MOVED)
def test_moved_names_live_in_their_module(name, module):
    obj = getattr(importlib.import_module(f"quantcert.{module}"), name)
    assert obj.__module__ == f"quantcert.{module}"
    assert not hasattr(quantcert, name)
    assert all(value is not obj for value in vars(quantcert).values())
    assert "__getattr__" not in vars(quantcert)


@pytest.mark.parametrize(
    "name",
    [
        "chernoff_tail",
        "DomainError",
        "IntervalSchedule",
        "forward",
        "predict",
        "RobustnessQuery",
        "EmptySupportError",
        "DegenerateQueryError",
        "DimensionMismatchError",
        "InvalidIntervalError",
        "InvalidConfidenceError",
        "ShapeError",
        "NonFiniteWeightError",
        "SpawnFailureError",
        "ProtocolViolationError",
        "ChildExitError",
        "soundness_trial",
        "SoundnessStats",
        "bincert",
        "fixedcert",
        "estimate_baseline",
        "BinCertParams",
        "FixedCertParams",
        "create_interval",
        "StrategyFn",
        "SubprocessOracle",
        "TesterResult",
        "NoYesFoundError",
        "ParseError",
    ],
)
def test_removed_names_are_gone(name):
    assert not hasattr(quantcert, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"quantcert.{module}"), name)


def test_error_tree():
    """One error type for each kind of failure a caller can act on."""
    for module in MODULES:
        importlib.import_module(f"quantcert.{module}")
    assert sorted(cls.__name__ for cls in _subclasses(quantcert.QuantCertError)) == [
        "OracleFailure",
        "OutOfRangeError",
        "ReportInvariantError",
    ]


def _printed_by_example(after):
    """The lines printed by README's first python block after the text `after`."""
    section = README.split(after, 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    return out.getvalue().splitlines()


def test_library_quick_start_prints_pinned_counts():
    assert _printed_by_example("## Quick start (library)")[0] == "yes 664"


def test_classifier_example_prints_pinned_counts(tmp_path, monkeypatch):
    model = re.search(r"## Model format.*?```json\n(.*?)```", README, re.S).group(1)
    (tmp_path / "model.json").write_text(model)
    monkeypatch.chdir(tmp_path)
    assert _printed_by_example("For classifiers") == ["yes 36", "0.1 23166"]


def test_toy_oracle_example_prints_pinned_verdicts():
    assert _printed_by_example("### Writing an oracle") == [
        "yes 29", "inconclusive budget-exhausted"]


# The robustness entry points take plain arguments and one grid form.
@pytest.mark.parametrize(
    "name, gone", [("certify_density", "request"), ("adversarial_hardness", "eps_range")]
)
def test_robustness_signatures_drop_removed_parameters(name, gone):
    fn = getattr(importlib.import_module("quantcert.robustness"), name)
    assert gone not in inspect.signature(fn).parameters


@pytest.mark.parametrize("flag", ["--eps-lo", "--eps-hi", "--resolution"])
def test_removed_hardness_range_flags_are_usage_errors(capsys, flag):
    argv = ["hardness", "--theta", "0.3", "--eta", "0.2", "--delta", "0.1",
            "--model", "model.json", "--center", "center.csv", "--eps-grid", "0.1"]
    assert main([*argv, flag, "0.1"]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


# simulate computes its table: it has no runs to count, seed or time.
@pytest.mark.parametrize("flag", ["--trials", "--mode", "--seed", "--max-wall-ms"])
def test_removed_simulate_flags_are_usage_errors(capsys, flag):
    argv = ["simulate", "--theta", "0.3", "--eta", "0.2", "--delta", "0.1", "--p-grid", "0.4"]
    assert main([*argv, flag, "5"]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_run_strategy_is_the_one_entry_point():
    # One explicit signature, not *args/**kwargs: every strategy takes it.
    fn = importlib.import_module("quantcert.strategy").run_strategy
    assert list(inspect.signature(fn).parameters) == [
        "name", "query", "oracle", "seed", "limits", "config"]


# Every function that once took a batch_size; draws are sized by the oracle.
# The three strategy functions are now the STRATEGIES entries of their names.
ONCE_BATCHED = [
    ("strategy", "run_tester"),
    ("strategy", "_run_schedule"),
    ("strategy", "run_strategy"),
    ("strategy", "bincert"),
    ("strategy", "fixedcert"),
    ("strategy", "estimate_baseline"),
    ("robustness", "certify_density"),
    ("robustness", "adversarial_hardness"),
    ("sim", "complexity_sweep"),
]


@pytest.mark.parametrize("module, name", ONCE_BATCHED)
def test_no_function_takes_a_batch_size(module, name):
    mod = importlib.import_module(f"quantcert.{module}")
    if hasattr(mod, name):
        fn = getattr(mod, name)
    else:
        fn = mod.STRATEGIES[{"estimate_baseline": "estimate"}.get(name, name)]
    assert "batch_size" not in inspect.signature(fn).parameters


# A run reads one trial stream, so trials are addressed by (seed, start,
# count) alone: no protocol or implementation takes a per-call stream key.
TRIAL_ADDRESSED = [
    ("oracle", "Oracle", "draw"),
    ("oracle", "BernoulliOracle", "draw"),
    ("oracle", "PropertyOracle", "draw"),
    ("oracle", "Sampler", "batch"),
    ("robustness", "LinfBallSampler", "batch"),
    ("robustness", "L2BallSampler", "batch"),
    ("core", "SeedSpec", "raw_block"),
]


@pytest.mark.parametrize("module, owner, method", TRIAL_ADDRESSED)
def test_no_method_takes_a_call_index(module, owner, method):
    cls = getattr(importlib.import_module(f"quantcert.{module}"), owner)
    params = inspect.signature(getattr(cls, method)).parameters
    assert "call_index" not in params
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    if method != "raw_block":
        assert list(params) == ["self", "seed", "start", "count"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--bernoulli", "0.4", "--seed", "1"],
        ["simulate", "--p-grid", "0.4"],
    ],
)
def test_batch_size_flag_is_a_usage_error(capsys, argv):
    query = ["--theta", "0.3", "--eta", "0.2", "--delta", "0.1"]
    assert main([*argv, *query, "--batch-size", "64"]) == EXIT_USAGE
    assert "--batch-size" in capsys.readouterr().err


def _unused_imports(path):
    """Module-level imports in one file that nothing else in it names."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "quantcert").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    )
    assert [hit for path in paths for hit in _unused_imports(path)] == []
