import json

import numpy as np
import pytest

from quantcert import SeedSpec, TrialOutcomes, load_model


class CountingOracle:
    """Wraps an oracle and records every draw window it serves.

    With batch_trials given, testers draw that many trials at a time from
    the wrapper; without it they fall back to their default.
    """

    def __init__(self, inner, batch_trials=None):
        self.inner = inner
        self.windows = []
        self.total_trials = 0
        if batch_trials is not None:
            self.batch_trials = batch_trials

    def draw(self, seed, start, count):
        outcomes = self.inner.draw(seed, start, count)
        self.windows.append((start, count))
        self.total_trials += outcomes.trials
        return outcomes


class FixedSuccessOracle:
    """Returns a predetermined global success pattern, for boundary tests.

    successes_at holds the trial indices that count as successes; draws are
    stateless functions of (start, count) as the oracle contract requires.
    """

    def __init__(self, successes_at):
        self.successes_at = frozenset(successes_at)

    def draw(self, seed, start, count):
        hits = [i in self.successes_at for i in range(start, start + count)]
        return TrialOutcomes(np.array(hits, dtype=bool))


def linear_model_doc(boundary, input_dim=2, feature=0):
    """Two-class model whose logits are (0, x[feature] - boundary)."""
    weights = [0.0] * (2 * input_dim)
    weights[input_dim + feature] = 1.0
    return json.dumps(
        {
            "input_dim": input_dim,
            "layers": [
                {
                    "kind": "dense",
                    "rows": 2,
                    "cols": input_dim,
                    "weights": weights,
                    "bias": [0.0, -boundary],
                }
            ],
        }
    )


def linear_model(boundary, input_dim=2, feature=0):
    return load_model(linear_model_doc(boundary, input_dim, feature))


@pytest.fixture
def seed():
    return SeedSpec(20240817)


@pytest.fixture
def center2():
    return np.array([0.5, 0.5])
