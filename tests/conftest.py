import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from quantcert import SeedSpec, TrialOutcomes, load_model
from quantcert.strategy import _halving_calls, schedule
from quantcert.tester import TesterPlan


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


def schedule_rows(name, query):
    """(side, theta1, theta2, delta_call) of every entry of the schedule, in run order.

    The layouts hand each call's interval and delta_call to plan_tester; a
    stand-in that keeps them and sizes nothing walks whole schedules at eta
    near 1e-6, where sizing each of hundreds of calls exactly would take
    seconds.
    """
    def unsized(theta1, theta2, delta_call):
        return TesterPlan(theta1, theta2, delta_call, 1, 0)

    with mock.patch("quantcert.strategy.plan_tester", unsized):
        return [(call.side, call.plan.theta1, call.plan.theta2, call.plan.delta_call)
                for call in schedule(name, query)[1]]


def parent_budgets(name, query, spent):
    """Each flank's budgets, in run order, and the least the final call gets.

    spent holds the (side, delta_call) pairs of a whole schedule, in run
    order; the flank lengths come from it.  bincert splits delta/2 over each
    flank by weights max(4^-j, 1/n^2) for the call j steps before the
    flank's last, here in exact arithmetic, and its final call gets no less
    than delta / n, what every call got under a union bound over all calls.
    fixedcert splits delta/3 evenly over each flank and gives the final call
    no less than delta/3; estimate's one call runs at delta.
    """
    if name == "estimate":
        return {"proving": [], "refuting": [], "final": query.delta}
    count = {side: sum(s == side for s, _ in spent) for side in ("proving", "refuting")}
    if name == "fixedcert":
        return {**{side: [query.delta / (3.0 * k)] * k if k else [] for side, k in count.items()},
                "final": query.delta / 3.0}
    n = _halving_calls(query)
    budgets = {}
    for side, k in count.items():
        weights = [max(Fraction(1, 4 ** j), Fraction(1.0 / (n * n))) for j in range(k - 1, -1, -1)]
        budgets[side] = [float(Fraction(query.delta) / 2 * w / sum(weights)) for w in weights]
    return {**budgets, "final": query.delta / n}


def assert_per_side(query, spent, parent):
    """The per-side union bound on a whole schedule's (side, delta_call)
    pairs, in run order, against parent_budgets: every flank call runs at
    its budget, to 1e-12 of it, and the final call, last, gets no less
    than parent's floor.

    Only a proving call or the final call can give a wrong yes, and only a
    refuting call or the final call a wrong no, so each flank's budgets
    plus the final call's must sum within delta.
    """
    *flanks, (last, final) = spent
    assert last == "final" and all(side != "final" for side, _ in flanks)
    for side in ("proving", "refuting"):
        budgets = [budget for s, budget in flanks if s == side]
        assert budgets == pytest.approx(parent[side], rel=1e-12, abs=0.0)
        assert math.fsum(budgets + [final]) <= query.delta
    assert final >= parent["final"]
    if not flanks:
        assert final == query.delta
