"""Two-point threshold tester over one shared trial stream.

Distinguishes Bernoulli rates p <= theta1 from p >= theta2.  A call of N
trials with integer cutoff c answers yes when the successes S among them
are at most c.  N is *feasible* at delta_call when some c has

    P_theta1(S > c) <= delta_call   and   P_theta2(S <= c) <= delta_call,

both tails of the exact binomial law.  The first tail falls and the second
rises with c, so N is feasible exactly when the smallest c meeting the
first condition meets the second; that c is the plan's cutoff.

The feasible N do not form an interval, so the plan does not promise the
smallest one.  Its N comes from bisection between 0, feasible only at
delta_call = 1 (where N0 is 0 too), and

    N0 = ceil( 8 theta2 ln(1/delta_call) / (theta2 - theta1)^2 ),

feasible with the cutoff at the interval's midpoint by the Chernoff bounds
P(S >= (1 + e) mu) <= exp(-e^2 mu / (2 + e)) and P(S <= (1 - e) mu) <=
exp(-e^2 mu / 2), which hold for every e > 0.  So the plan's N is feasible
and N - 1 is not.  Tails are summed from their far end over a window of the
pmf that leaves out at most 2e-9 delta_call on each side, and a computed
tail must be at most delta_call (1 - 1e-6), so neither the window nor
rounding lets an infeasible N pass.  Where N0 exceeds 2^32, or delta_call
is below 1e-200, the plan is N0 with the midpoint cutoff: planning never
builds a pmf of more than about 2 M terms, nor one whose tails underflow.
Near the cap, planning one call takes about a second; drawing its trials
takes far longer.

Every call of a run decides on a prefix of one TrialStream: a call of size
N counts the successes among trials [0, N).  Each call's error bound holds
for the first N trials of any i.i.d. stream, so calls need not be
independent for a union bound over the calls that can give a wrong
verdict: proving and final calls for a wrong yes, refuting and final calls
for a wrong no (strategy._final_budget).  A run costs its largest call
instead of the sum of its calls.  The stream keeps the outcome of every
trial it drew, so no trial is drawn twice, whatever order the calls come in.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .core import OutOfRangeError, SampleTally, SeedSpec, _check_int, _check_real
from .oracle import Oracle, OracleFailure, TrialOutcomes


@dataclass(frozen=True)
class TesterPlan:
    """One tester call: draw n_samples trials, answer yes iff at most c succeed."""

    theta1: float
    theta2: float
    delta_call: float
    n_samples: int
    c: int


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


def _closed_form(theta2: float, width: float, delta_call: float) -> int:
    """N0 = ceil(8 theta2 ln(1/delta_call) / width^2): the Chernoff size a plan bisects from."""
    return _sample_count(8.0 * theta2 * math.log(1.0 / delta_call) / (width * width))


def _cutoff(n: int, t: float | Fraction) -> int:
    """The largest s in [0, n] with s <= t n, t a float or Fraction >= 0, computed exactly."""
    return min(n, math.floor(Fraction(t) * n))


# Probability mass a binomial window or the law may drop at each step: a
# binomial tail, the tail of a run-state's count distribution, or a whole
# run-state.
_TAIL = 1e-30


def _trim(lo: int, mass: np.ndarray, tail: float = _TAIL) -> Tuple[int, np.ndarray]:
    """Drop the longest head and the longest tail of ``mass`` holding at most ``tail`` each."""
    head = int(np.searchsorted(np.cumsum(mass), tail, side="right"))
    end = int(np.searchsorted(np.cumsum(mass[::-1]), tail, side="right"))
    return lo + head, mass[head : max(head, mass.size - end)]


def _binomial(m: int, p: float, tail: float = _TAIL) -> Tuple[int, np.ndarray]:
    """Bin(m, p) as (lo, pmf of lo, lo + 1, ...), each tail cut at most ``tail``.

    Hoeffding's bound puts at most ``tail`` beyond m p -/+ sqrt(m ln(1/tail) / 2);
    inside, the pmf comes from the ratio recursion in log space, scaled to
    sum to 1.
    """
    if p == 0.0 or p == 1.0:
        return (m if p == 1.0 else 0), np.ones(1)
    half = math.sqrt(m * math.log(1.0 / tail) / 2.0)
    lo = max(0, math.floor(m * p - half))
    hi = min(m, math.ceil(m * p + half))
    k = np.arange(lo, hi, dtype=np.float64)
    steps = np.log((m - k) / (k + 1.0)) + (math.log(p) - math.log1p(-p))
    logs = np.concatenate(([0.0], np.cumsum(steps)))
    pmf = np.exp(logs - logs.max())
    pmf /= pmf.sum()
    return _trim(lo, pmf, tail)


# Planning bounds: the largest N whose tails are computed, the smallest
# delta_call they are computed at, the mass a window may leave out of each
# tail (twice, by _binomial's window and its trim) and the margin a computed
# tail must keep under delta_call, both relative to delta_call.
_EXACT_N = 2 ** 32
_EXACT_DELTA = 1e-200
_WINDOW = 1e-9
_MARGIN = 1e-6


def _exact_cutoff(n: int, theta1: float, theta2: float, delta_call: float) -> Optional[int]:
    """The cutoff that makes n feasible, or None when n is not feasible."""
    bound = delta_call * (1.0 - _MARGIN)
    lo, pmf = _binomial(n, theta1, delta_call * _WINDOW)
    # The smallest c with P(S > c) <= bound leaves the longest tail of the
    # window holding at most bound above it.
    above = int(np.searchsorted(np.cumsum(pmf[::-1]), bound, side="right"))
    c = lo + pmf.size - above - 1
    lo, pmf = _binomial(n, theta2, delta_call * _WINDOW)
    return c if c < lo or float(pmf[: c - lo + 1].sum()) <= bound else None


def plan_tester(theta1: float, theta2: float, delta_call: float) -> TesterPlan:
    """Derive the sample size and cutoff for one call.

    Raises OutOfRangeError unless 0 < delta_call <= 1, the real numbers
    0 <= theta1 < theta2 <= 1, and (theta2 - theta1)^2 is nonzero; at
    delta_call = 1 the plan is (n, c) = (0, 0), its closed form.  The
    last 256 intervals' plans are cached, so runs that repeat a query plan
    each interval once.
    """
    delta_call = _check_real("delta_call", delta_call, "(0, 1]")
    theta1 = _check_real("theta1", theta1, "[-inf, inf]")
    theta2 = _check_real("theta2", theta2, "[-inf, inf]")
    return _plan(theta1, theta2, delta_call)


@lru_cache(maxsize=256)
def _plan(theta1: float, theta2: float, delta_call: float) -> TesterPlan:
    """plan_tester on floats that have passed its _check_real checks."""
    if not (0.0 <= theta1 < theta2 <= 1.0):
        raise OutOfRangeError(
            f"need 0 <= theta1 < theta2 <= 1, got ({theta1}, {theta2})"
        )
    width = theta2 - theta1
    if width * width == 0.0:
        raise OutOfRangeError(
            f"interval ({theta1}, {theta2}) is too narrow: its width squared underflows"
        )
    hi = _closed_form(theta2, width, delta_call)
    c = _cutoff(hi, (Fraction(theta1) + Fraction(theta2)) / 2)
    if hi <= _EXACT_N and delta_call >= _EXACT_DELTA:
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = _exact_cutoff(mid, theta1, theta2, delta_call)
            if found is None:
                lo = mid
            else:
                hi, c = mid, found
    return TesterPlan(theta1, theta2, delta_call, hi, c)


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
            if not isinstance(answer, TrialOutcomes):
                raise OracleFailure(
                    f"the oracle returned {type(answer).__name__}; a draw returns "
                    "TrialOutcomes, one bool per trial"
                )
            if answer.trials != k:
                raise OracleFailure(
                    f"the oracle answered shape {answer.hits.shape} for the {k} trials "
                    "asked for; a draw answers one bool per trial"
                )
        except OracleFailure as exc:
            part = exc.partial_tally or SampleTally(0, 0)
            raise OracleFailure(
                str(exc),
                partial_tally=SampleTally(start + part.trials, before + part.successes),
            ) from exc
        self._ends.append(start + k)
        self._successes.append(before + answer.successes)
        self._packed.append(np.packbits(answer.hits))
