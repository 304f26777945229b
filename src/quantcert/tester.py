"""Two-point threshold tester.

Distinguishes Bernoulli rates p <= theta1 from p >= theta2 with one-sided
failure probability delta_call each way.  The sample size comes from the
additive Chernoff bounds with the slack split so both tails bind at once:

    N    = ceil( (sqrt(3 theta1) + sqrt(2 theta2))^2 / (theta2 - theta1)^2
                 * ln(1/delta_call) )
    eta1 = (theta2 - theta1) * sqrt(3 theta1) / (sqrt(3 theta1) + sqrt(2 theta2))
    eta2 = (theta2 - theta1) - eta1

The verdict compares the success count s against the integer cutoff c,
the largest s in [0, N] with s / N <= t for the boundary t = theta1 + eta1:
s <= c is yes, so a tie s / N == t counts as yes.  At theta1 = 0 this
collapses to N = ceil((2/theta2) ln(1/delta_call)) with t = 0 and c = 0,
so yes requires a clean sweep of zero successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .core import OutOfRangeError, SampleTally, SeedSpec
from .oracle import Oracle, OracleFailure


@dataclass(frozen=True)
class TesterPlan:
    """Fully derived execution plan for one tester call.

    eta2 is defined by subtraction from the interval width and is never
    recomputed; t is theta1 + eta1 and doubles as theta2 - eta2 up to
    rounding.
    """

    theta1: float
    theta2: float
    delta_call: float
    n_samples: int
    eta1: float
    eta2: float
    t: float

    @property
    def c(self) -> int:
        """Largest s in [0, n_samples] with s / n_samples <= t: yes iff successes <= c.

        Derived, not stored, so it stays out of every serialized form.
        """
        n = self.n_samples
        # t * n can round across an integer; one step either way corrects it.
        c = min(n, math.floor(self.t * n))
        if c < n and (c + 1) / n <= self.t:
            return c + 1
        return c - 1 if c / n > self.t else c


@dataclass(frozen=True)
class TesterResult:
    plan: TesterPlan
    tally: SampleTally
    outcome: Literal["yes", "no"]


def plan_tester(theta1: float, theta2: float, delta_call: float) -> TesterPlan:
    """Derive the sample size and decision boundary for one call.

    Raises OutOfRangeError unless 0 < delta_call < 1,
    0 <= theta1 < theta2 <= 1 and (theta2 - theta1)^2 is nonzero.
    """
    if not 0.0 < delta_call < 1.0:
        raise OutOfRangeError(
            f"delta_call must sit in (0, 1), got {delta_call}"
        )
    if not (0.0 <= theta1 < theta2 <= 1.0):
        raise OutOfRangeError(
            f"need 0 <= theta1 < theta2 <= 1, got ({theta1}, {theta2})"
        )
    width = theta2 - theta1
    if width * width == 0.0:
        raise OutOfRangeError(
            f"interval ({theta1}, {theta2}) is too narrow: its width squared underflows"
        )
    root1 = math.sqrt(3.0 * theta1)
    root2 = math.sqrt(2.0 * theta2)
    n = math.ceil((root1 + root2) ** 2 / (width * width) * math.log(1.0 / delta_call))
    eta1 = width * root1 / (root1 + root2)
    eta2 = width - eta1
    return TesterPlan(
        theta1=theta1,
        theta2=theta2,
        delta_call=delta_call,
        n_samples=int(n),
        eta1=eta1,
        eta2=eta2,
        t=theta1 + eta1,
    )


def run_tester(
    plan: TesterPlan,
    oracle: Oracle,
    seed: SeedSpec,
    call_index: int = 0,
) -> TesterResult:
    """Draw exactly plan.n_samples trials and decide against the cutoff c.

    Trials are fetched in order, in draws of the oracle's ``batch_trials``
    (128 for an oracle that does not set it); the final draw is truncated.
    The draw size changes no trial and no outcome, only the number of draws.
    Oracle failures propagate as OracleFailure with the tally accumulated
    so far attached.
    """
    batch_size = getattr(oracle, "batch_trials", 128)
    if batch_size < 1:
        raise OutOfRangeError(f"batch_trials must be at least 1, got {batch_size}")

    n = plan.n_samples
    successes = 0
    trials = 0
    for s in range(0, n, batch_size):
        try:
            tally = oracle.draw(min(batch_size, n - s), call_index, seed, start=s)
        except OracleFailure as exc:
            part = exc.partial_tally or SampleTally(0, 0)
            raise OracleFailure(
                str(exc),
                partial_tally=SampleTally(trials + part.trials, successes + part.successes),
            ) from exc
        successes += tally.successes
        trials += tally.trials

    outcome: Literal["yes", "no"] = "yes" if successes <= plan.c else "no"
    return TesterResult(plan=plan, tally=SampleTally(trials, successes), outcome=outcome)
