"""Certification strategies built on the two-point tester.

All strategies answer the same threshold query and emit the same report
shape; they differ in how they schedule tester calls:

* bincert: adaptive halving toward the threshold from both sides, cheap
  when the true rate is far from theta.
* fixedcert: a non-adaptive grid of intervals of pitch sqrt(eta), laid out
  before any sampling.
* estimate: the naive baseline that estimates the rate to within eta/2 in
  one giant call.

Per-call failure budgets are chosen so each strategy's total wrong-verdict
probability stays within the query's delta by a union bound.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, List, Literal, Optional, Tuple

from .core import (
    InconclusiveReason,
    OutOfRangeError,
    QuantCertError,
    QueryLike,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
    validate_query,
)
from .oracle import Oracle
from .tester import TesterPlan, plan_tester, run_tester

Side = Literal["proving", "refuting", "final"]

# Integer quotients like theta/sqrt(eta) can land one ulp under a whole
# number; the nudge keeps layout counts from collapsing by one.
_FLOOR_NUDGE = 1e-9


class ReportInvariantError(QuantCertError):
    """A strategy produced a report violating its own guarantees."""


@dataclass(frozen=True)
class CallRecord:
    """One completed tester call: the side it argued for, its plan and tally."""

    side: Side
    plan: TesterPlan
    tally: SampleTally
    outcome: Literal["yes", "no"]


@dataclass(frozen=True)
class ResourceLimits:
    """Optional caps checked before each tester call starts; zero is allowed."""

    max_samples: Optional[int] = None
    max_wall_ms: Optional[float] = None

    def __post_init__(self) -> None:
        cap = self.max_samples
        if cap is not None and not (isinstance(cap, numbers.Integral) and cap >= 0):
            raise OutOfRangeError(f"max_samples must be a nonnegative integer, got {cap}")
        # Written so that NaN fails too: it would compare false and never block.
        if self.max_wall_ms is not None and not self.max_wall_ms >= 0.0:
            raise OutOfRangeError(f"max_wall_ms must be nonnegative, got {self.max_wall_ms}")


@dataclass(frozen=True)
class CertificationReport:
    query: ThresholdQuery
    strategy: str
    verdict: Verdict
    total_samples: int
    seed: SeedSpec
    calls: Tuple[CallRecord, ...]
    wall_time_ms: float
    notes: Tuple[str, ...] = ()
    config: Dict[str, object] = field(default_factory=dict)

    def to_dict(self, include_timing: bool = True) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "query": {
                "theta": self.query.theta,
                "eta": self.query.eta,
                "delta": self.query.delta,
            },
            "strategy": self.strategy,
            "verdict": self.verdict.kind,
            "inconclusive_reason": self.verdict.reason,
            "total_samples": self.total_samples,
            "seed": {
                "root_seed": int(self.seed.root_seed),
                "derivation": SeedSpec.DERIVATION,
            },
            "calls": [
                {
                    "side": rec.side,
                    "theta1": rec.plan.theta1,
                    "theta2": rec.plan.theta2,
                    "delta_call": rec.plan.delta_call,
                    "n": rec.plan.n_samples,
                    "eta1": rec.plan.eta1,
                    "eta2": rec.plan.eta2,
                    "t": rec.plan.t,
                    "successes": rec.tally.successes,
                    "p_hat": rec.tally.p_hat,
                    "outcome": rec.outcome,
                }
                for rec in self.calls
            ],
            "notes": list(self.notes),
            "config": dict(self.config),
        }
        if include_timing:
            doc["wall_time_ms"] = self.wall_time_ms
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(include_timing=True), indent=indent)

    def canonical_json(self) -> str:
        """Deterministic byte form: the top-level wall time removed."""
        return json.dumps(
            self.to_dict(include_timing=False),
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class BudgetBound:
    """Worst-case sample budget for the halving strategy.

    k1/k2/k3 are the closed-form left, right, and final terms; the exact
    schedule total sums the planned sizes of every call the schedule could
    ever make, so any observed run total is a subset sum of it.
    """

    k1: float
    k2: float
    k3: float
    exact_schedule_total: int

    @property
    def analytic_total(self) -> float:
        return self.k1 + self.k2 + self.k3


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _halving_calls(query: ThresholdQuery) -> float:
    """Bound n on the number of halving calls; each call runs at delta / n.

    n = 3 + log2(theta/eta) + log2((1 - theta - eta)/eta), each log clipped
    at 0.
    """
    theta, eta = query.theta, query.eta
    room = 1.0 - query.upper
    left = max(0.0, math.log2(theta / eta)) if theta > 0.0 else 0.0
    right = max(0.0, math.log2(room / eta)) if room > 0.0 else 0.0
    return 3.0 + left + right


def _halving_schedule(query: ThresholdQuery) -> Iterator[Tuple[Side, float, float]]:
    """Outcome-independent call intervals for bincert.

    The first proving interval is (0, theta) and the first refuting one
    (theta + eta, 1); each step halves the previous width, never below eta,
    keeping the threshold-side end pinned, and clamps the far end to
    [0, 1].  A flank is tested while its width exceeds eta; at theta = 0
    the left flank is empty and its stub (0, eta) is the final interval.
    Once both flanks are within eta a final call on (theta, theta + eta)
    ends the schedule.

    Widths are tracked by exact binary halving rather than recomputed from
    endpoints: subtracting a clamped endpoint can land one ulp above eta and
    would keep a width-eta interval in play forever.
    """
    theta, eta = query.theta, query.eta
    left, left_width = (0.0, theta), theta
    right, right_width = (query.upper, 1.0), 1.0 - query.upper
    while True:
        if left_width > eta:
            yield ("proving", *left)
        if right_width > eta:
            yield ("refuting", *right)
        if left_width <= eta and right_width <= eta:
            yield ("final", theta, query.upper)
            return
        step = max(eta, (left[1] - left[0]) / 2.0)
        left = (max(0.0, left[1] - step), left[1])
        left_width = max(eta, left_width / 2.0)
        step = max(eta, (right[1] - right[0]) / 2.0)
        right = (right[0], min(1.0, right[0] + step))
        right_width = max(eta, right_width / 2.0)


def _lerp(a: float, b: float, num: int, k: int) -> float:
    """Endpoint k of num equal cuts of [a, b]; exact at both ends."""
    t = k / num
    return a * (1.0 - t) + b * t


def _fixed_schedule(
    query: ThresholdQuery, n_left: int, n_right: int
) -> Iterator[Tuple[Side, float, float, float]]:
    """(side, theta1, theta2, delta_call) of fixedcert's grid, in run order.

    Proving intervals run leftmost first and refuting intervals rightmost
    first, alternating while both flanks last; each flank splits delta/3
    over its calls and the final call on (theta, theta + eta) keeps delta/3.
    """
    theta, upper, delta = query.theta, query.upper, query.delta
    for i in range(1, max(n_left, n_right) + 1):
        if i <= n_left:
            yield (
                "proving",
                _lerp(0.0, theta, n_left, i - 1),
                _lerp(0.0, theta, n_left, i),
                delta / (3.0 * n_left),
            )
        if i <= n_right:
            j = n_right - i + 1
            yield (
                "refuting",
                _lerp(upper, 1.0, n_right, j - 1),
                _lerp(upper, 1.0, n_right, j),
                delta / (3.0 * n_right),
            )
    yield ("final", theta, upper, delta / 3.0)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _check_report(report: CertificationReport) -> CertificationReport:
    query = report.query
    if report.total_samples != sum(rec.tally.trials for rec in report.calls):
        raise ReportInvariantError("total_samples disagrees with per-call tallies")
    for rec in report.calls:
        if rec.side == "proving" and not rec.plan.theta2 <= query.theta:
            raise ReportInvariantError(
                f"proving interval reaches {rec.plan.theta2} above theta {query.theta}"
            )
        if rec.side == "refuting" and not rec.plan.theta1 >= query.upper:
            raise ReportInvariantError(
                f"refuting interval starts at {rec.plan.theta1} below theta+eta {query.upper}"
            )
        if rec.side == "final" and (
            rec.plan.theta1 != query.theta or rec.plan.theta2 != query.upper
        ):
            raise ReportInvariantError("final call must test (theta, theta+eta)")
        if rec.tally.trials != rec.plan.n_samples:
            raise ReportInvariantError("a completed call drew the wrong trial count")
    if report.verdict.kind == "yes":
        last = report.calls[-1]
        if last.side not in ("proving", "final") or last.outcome != "yes":
            raise ReportInvariantError("yes verdict without a supporting final call")
    if report.verdict.kind == "no":
        last = report.calls[-1]
        if last.side not in ("refuting", "final") or last.outcome != "no":
            raise ReportInvariantError("no verdict without a supporting final call")
    return report


def _blocked(
    limits: Optional[ResourceLimits],
    spent_samples: int,
    next_samples: int,
    started: float,
) -> Optional[InconclusiveReason]:
    if limits is None:
        return None
    if (
        limits.max_samples is not None
        and spent_samples + next_samples > limits.max_samples
    ):
        return "budget-exhausted"
    if (
        limits.max_wall_ms is not None
        and (time.perf_counter() - started) * 1000.0 > limits.max_wall_ms
    ):
        return "timeout"
    return None


# The outcome with which each flank's call settles the query on its own.
_SETTLES = {"proving": "yes", "refuting": "no"}


def _run_schedule(
    strategy: str,
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Run a strategy's scheduled tester calls in order until one settles the query.

    Entries are read one at a time, so a call is planned only when it is
    reached.  The limits are checked before each call; a proving yes, a
    refuting no, or any final outcome becomes the verdict.
    """
    query = validate_query(query)
    notes, entries = schedule(strategy, query)
    started = time.perf_counter()
    calls: List[CallRecord] = []
    total = 0
    verdict: Optional[Verdict] = None

    for side, plan in entries:
        reason = _blocked(limits, total, plan.n_samples, started)
        if reason is not None:
            verdict = Verdict("inconclusive", reason)
            break
        result = run_tester(plan, oracle, seed, call_index=len(calls))
        calls.append(CallRecord(side, plan, result.tally, result.outcome))
        total += result.tally.trials
        if side == "final" or _SETTLES[side] == result.outcome:
            verdict = Verdict(result.outcome)
            break

    assert verdict is not None
    report = CertificationReport(
        query=query,
        strategy=strategy,
        verdict=verdict,
        total_samples=total,
        seed=seed,
        calls=tuple(calls),
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
        notes=notes,
        config=dict(config or {}),
    )
    return _check_report(report)


@dataclass(frozen=True)
class ScheduleLaw:
    """How a run of a schedule ends against Bernoulli(p), computed exactly."""

    p_yes: float
    p_no: float
    p_inconclusive: float
    # (run total, probability) for every possible total, in increasing order
    samples: Tuple[Tuple[int, float], ...]


def schedule_law(
    entries: Iterable[Tuple[Side, TesterPlan]],
    p: float,
    max_samples: Optional[int] = None,
) -> ScheduleLaw:
    """The law of a run of these entries against Bernoulli(p), computed.

    Same rules as the run: a call that would pass max_samples ends it
    inconclusive; a proving yes, a refuting no or any final outcome settles
    it.  Calls draw independent trials, so a call says yes with probability
    P(S <= c), S ~ Bin(n, p).  The walk stops once no run reaches the next
    call.
    """
    # Imported here: scipy.special costs more to import than the rest of
    # the package, and only exact studies need it.
    from scipy.special import bdtr, bdtrc

    settled = {"yes": 0.0, "no": 0.0}
    # A blocked call ends runs at the total where the call before settled some.
    samples: Dict[int, float] = {}
    reach = 1.0
    total = 0
    for side, plan in entries:
        n = plan.n_samples
        if max_samples is not None and total + n > max_samples:
            samples[total] = samples.get(total, 0.0) + reach
            break
        says = {"yes": float(bdtr(plan.c, n, p)), "no": float(bdtrc(plan.c, n, p))}
        total += n
        if side == "final":
            settled["yes"] += reach * says["yes"]
            settled["no"] += reach * says["no"]
            samples[total], reach = reach, 0.0
            break
        ends = _SETTLES[side]
        settled[ends] += reach * says[ends]
        samples[total] = reach * says[ends]
        reach *= says["no" if ends == "yes" else "yes"]
        if reach == 0.0:
            break
    # Whatever still reaches a call here was blocked by max_samples.
    return ScheduleLaw(
        settled["yes"], settled["no"], reach,
        tuple((t, w) for t, w in samples.items() if w > 0.0),
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def baseline_samples(query: QueryLike) -> int:
    """Sample size of the naive estimation baseline.

    Smallest integer strictly greater than 12 ln(1/delta) / eta^2, which
    estimates the rate within eta/2 at confidence delta.
    """
    q = validate_query(query)
    bound = 12.0 * math.log(1.0 / q.delta) / (q.eta * q.eta)
    return int(math.floor(bound)) + 1


def worst_case_budget(query: QueryLike) -> BudgetBound:
    """Worst-case halving budget: closed-form terms plus the exact schedule sum.

    The closed forms bound the left flank, right flank, and final call
    separately; a flank narrower than eta contributes zero.  The exact term
    plans every interval the halving schedule could ever test, so it
    dominates any observed run structurally.
    """
    q = validate_query(query)
    big_l = math.log(1.0 / (q.delta / _halving_calls(q)))
    const = (math.sqrt(3.0) + math.sqrt(2.0)) ** 2
    theta, eta = q.theta, q.eta
    room = 1.0 - q.upper
    k1 = (
        0.0
        if theta < eta
        else (4.0 / 3.0) * const * (1.0 / (eta * eta) - 1.0 / (theta * theta)) * big_l
    )
    k2 = (
        0.0
        if room < eta
        else (4.0 / 3.0)
        * const
        * (1.0 / (eta * eta) - 1.0 / (4.0 * room * room))
        * big_l
    )
    k3 = (
        (math.sqrt(3.0 * theta) + math.sqrt(2.0 * q.upper)) ** 2 / (eta * eta) * big_l
    )
    _, entries = schedule("bincert", q)
    exact = sum(plan.n_samples for _, plan in entries)
    return BudgetBound(k1=k1, k2=k2, k3=k3, exact_schedule_total=int(exact))


STRATEGIES = {
    name: partial(_run_schedule, name) for name in ("bincert", "fixedcert", "estimate")
}


def _unknown_strategy(name: str) -> OutOfRangeError:
    return OutOfRangeError(f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}")


def run_strategy(
    name: str,
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Certify ``query`` against ``oracle`` with the named strategy.

    The call goes through STRATEGIES[name], so a wrapper placed there sees
    every run.  See schedule for what each strategy does.
    """
    try:
        certify = STRATEGIES[name]
    except KeyError:
        raise _unknown_strategy(name) from None
    return certify(query, oracle, seed, limits, config)


def schedule(
    strategy: str, query: ThresholdQuery
) -> Tuple[Tuple[str, ...], Iterator[Tuple[Side, TesterPlan]]]:
    """A strategy's report notes and the (side, plan) entries it runs, in order.

    This is the one place a strategy name decides anything: the layout of
    the calls and the split of delta across them.  bincert runs every call
    at delta / n (_halving_calls); fixedcert gives each flank delta/3,
    split evenly over its grid, and the final call delta/3; estimate makes
    one call at delta with the boundary theta + eta/2.  The entries are
    lazy: a plan is made when its entry is read, so a run that settles
    early plans nothing more.  Runs, worst_case_budget and schedule_law
    read them.
    """
    if strategy == "bincert":
        n = _halving_calls(query)
        delta_min = query.delta / n
        notes = (f"halving call budget n = {n!r} (base-2 depth), delta_min = {delta_min!r}",)
        return notes, (
            (side, plan_tester(theta1, theta2, delta_min))
            for side, theta1, theta2 in _halving_schedule(query)
        )
    if strategy == "fixedcert":
        pitch = math.sqrt(query.eta)
        n_left = int(math.floor(query.theta / pitch + _FLOOR_NUDGE))
        n_right = int(math.floor((1.0 - query.upper) / pitch + _FLOOR_NUDGE))
        notes = (
            f"grid layout: {n_left} proving + {n_right} refuting "
            f"intervals at pitch sqrt(eta) = {pitch!r}",
        )
        return notes, (
            (side, plan_tester(theta1, theta2, delta_call))
            for side, theta1, theta2, delta_call in _fixed_schedule(query, n_left, n_right)
        )
    if strategy == "estimate":
        half = query.eta / 2.0
        plan = TesterPlan(theta1=query.theta, theta2=query.upper, delta_call=query.delta,
                          n_samples=baseline_samples(query), eta1=half, eta2=half,
                          t=query.theta + half)
        return (), iter([("final", plan)])
    raise _unknown_strategy(strategy)
