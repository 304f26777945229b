"""Two-point threshold tester over one shared trial stream.

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

Every call of a run decides on a prefix of one TrialStream: a call of size
N counts the successes among trials [0, N).  Each call's error bound holds
for the first N trials of any i.i.d. stream, so calls need not be
independent for a union bound over them, and a run costs its largest call
instead of the sum of its calls.  The stream keeps the outcome of every
trial it drew, so no trial is drawn twice, whatever order the calls come in.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import OutOfRangeError, SampleTally, SeedSpec, _check_int, _check_real
from .oracle import Oracle, OracleFailure, TrialOutcomes


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


def _sample_count(bound: float) -> int:
    """The smallest integer at or above a sample-size bound.

    Raises OutOfRangeError when the bound is not finite: a query too tight
    for any sample count is bad input, not an internal failure.
    """
    if not math.isfinite(bound):
        raise OutOfRangeError(
            f"the sample size bound {bound} is not finite; the query is too tight"
        )
    return math.ceil(bound)


def plan_tester(theta1: float, theta2: float, delta_call: float) -> TesterPlan:
    """Derive the sample size and decision boundary for one call.

    Raises OutOfRangeError unless 0 < delta_call < 1, the real numbers
    0 <= theta1 < theta2 <= 1, and (theta2 - theta1)^2 is nonzero.
    """
    delta_call = _check_real("delta_call", delta_call, "(0, 1)")
    theta1 = _check_real("theta1", theta1, "[-inf, inf]")
    theta2 = _check_real("theta2", theta2, "[-inf, inf]")
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
    n = _sample_count((root1 + root2) ** 2 / (width * width) * math.log(1.0 / delta_call))
    eta1 = width * root1 / (root1 + root2)
    eta2 = width - eta1
    return TesterPlan(
        theta1=theta1,
        theta2=theta2,
        delta_call=delta_call,
        n_samples=n,
        eta1=eta1,
        eta2=eta2,
        t=theta1 + eta1,
    )


class _Deadline(Exception):
    """A stream's deadline passed before a draw it was asked for."""


class TrialStream:
    """The outcomes of one run's trial stream, each trial drawn once.

    Trial i of the stream is the oracle's trial i under ``seed``.  Asking
    for n trials past the stream's end extends it in draws of the oracle's
    ``batch_trials`` (128 for an oracle that does not set it), the last one
    truncated at n; asking for n inside it draws nothing.  The stream keeps
    every draw's outcomes, packed at one bit per trial, beside the
    successes before the draw, so the count below any n is a lookup.  A
    draw must answer a TrialOutcomes holding one bool per trial asked for.
    No draw starts once time.perf_counter() reaches ``deadline``; it raises _Deadline.
    """

    def __init__(self, oracle: Oracle, seed: SeedSpec, deadline: Optional[float] = None) -> None:
        self.oracle = oracle
        self.seed = seed
        self.deadline = deadline
        self.batch_trials = _check_int("batch_trials", getattr(oracle, "batch_trials", 128), 1)
        # Draw ends, increasing, and the successes before each; _packed[j]
        # holds the outcomes of trials [_ends[j], _ends[j + 1]).
        self._ends: List[int] = [0]
        self._successes: List[int] = [0]
        self._packed: List[np.ndarray] = []

    @property
    def length(self) -> int:
        """Trials drawn so far: the largest n asked for."""
        return self._ends[-1]

    def successes(self, n: int) -> int:
        """Successes among trials [0, n) of the stream.

        Oracle failures propagate as OracleFailure, with the tally of the
        stream up to the failed trial attached; a draw that answers other
        than one bool per trial asked for fails the same way, at its first
        trial.
        """
        while self.length < n:
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                raise _Deadline
            self._draw(min(self.batch_trials, n - self.length))
        at = bisect_right(self._ends, n) - 1
        inside = n - self._ends[at]
        if inside == 0:
            return self._successes[at]
        hits = np.unpackbits(self._packed[at], count=inside)
        return self._successes[at] + int(np.count_nonzero(hits))

    def _draw(self, k: int) -> None:
        """Extend the stream by its next k trials."""
        start, before = self._ends[-1], self._successes[-1]
        try:
            answer = self.oracle.draw(self.seed, start, k)
        except OracleFailure as exc:
            part = exc.partial_tally or SampleTally(0, 0)
            raise OracleFailure(
                str(exc),
                partial_tally=SampleTally(start + part.trials, before + part.successes),
            ) from exc
        if not isinstance(answer, TrialOutcomes):
            raise OracleFailure(
                f"the oracle returned {type(answer).__name__}; a draw returns "
                "TrialOutcomes, one bool per trial",
                partial_tally=SampleTally(start, before),
            )
        hits = answer.hits
        if not (isinstance(hits, np.ndarray) and hits.dtype == np.bool_ and hits.shape == (k,)):
            what = (f"{hits.dtype} of shape {hits.shape}" if isinstance(hits, np.ndarray)
                    else f"a {type(hits).__name__}")
            raise OracleFailure(
                f"the oracle answered {what} for the {k} trials asked for; "
                "a draw answers one bool per trial",
                partial_tally=SampleTally(start, before),
            )
        self._ends.append(start + k)
        self._successes.append(before + int(np.count_nonzero(hits)))
        self._packed.append(np.packbits(hits))
