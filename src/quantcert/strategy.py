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
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Literal, Optional, Tuple

from .core import (
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
        if self.max_samples is not None and self.max_samples < 0:
            raise OutOfRangeError(f"max_samples must be nonnegative, got {self.max_samples}")
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

    # Performance knobs cannot change verdicts or tallies, so the canonical
    # form drops them along with wall time.
    _VOLATILE_CONFIG = ("batch_size", "wall_time_ms")

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
                "root_seed": self.seed.root_seed,
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
        else:
            doc["config"] = {
                k: v
                for k, v in doc["config"].items()
                if k not in self._VOLATILE_CONFIG
            }
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(include_timing=True), indent=indent)

    def canonical_json(self) -> str:
        """Deterministic byte form: timing and performance knobs removed."""
        return json.dumps(
            self.to_dict(include_timing=False),
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class BinCertParams:
    """Derived constants for the halving strategy."""

    n_calls_bound: float
    delta_min: float

    @classmethod
    def from_query(cls, query: ThresholdQuery) -> "BinCertParams":
        theta, eta = query.theta, query.eta
        room = 1.0 - query.upper
        left = max(0.0, math.log2(theta / eta)) if theta > 0.0 else 0.0
        right = max(0.0, math.log2(room / eta)) if room > 0.0 else 0.0
        n = 3.0 + left + right
        return cls(n_calls_bound=n, delta_min=query.delta / n)


@dataclass(frozen=True)
class FixedCertParams:
    """Derived layout for the non-adaptive strategy.

    Both flanks are cut into intervals of width about sqrt(eta); a side too
    narrow to hold even one such interval gets zero calls and zero budget.
    """

    n_left: int
    n_right: int
    alpha_left: float
    alpha_right: float
    delta_left: float
    delta_right: float
    delta_final: float

    @classmethod
    def from_query(cls, query: ThresholdQuery) -> "FixedCertParams":
        theta, delta = query.theta, query.delta
        room = 1.0 - query.upper
        pitch = math.sqrt(query.eta)
        n_left = int(math.floor(theta / pitch + _FLOOR_NUDGE))
        n_right = int(math.floor(room / pitch + _FLOOR_NUDGE))
        return cls(
            n_left=n_left,
            n_right=n_right,
            alpha_left=theta / n_left if n_left else 0.0,
            alpha_right=room / n_right if n_right else 0.0,
            delta_left=delta / (3.0 * n_left) if n_left else 0.0,
            delta_right=delta / (3.0 * n_right) if n_right else 0.0,
            delta_final=delta / 3.0,
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
# interval construction
# ---------------------------------------------------------------------------


def create_interval(
    theta: float,
    prev_theta1: float,
    prev_theta2: float,
    eta: float,
    left: bool,
) -> Tuple[float, float]:
    """Next interval on one flank of the threshold.

    The first left interval is (0, theta) and the first right interval is
    (theta + eta, 1); after that each step halves the previous width, never
    below eta, keeping the threshold-side end pinned.  At theta = 0 the left
    flank is the fixed stub (0, eta).  Endpoints are clamped to [0, 1];
    clamping can only touch intervals already too narrow to be tested.
    """
    if not 0.0 <= theta <= 1.0:
        raise OutOfRangeError(f"theta must sit in [0, 1], got {theta}")
    if eta <= 0.0:
        raise OutOfRangeError(f"eta must be positive, got {eta}")
    if not 0.0 <= prev_theta1 <= prev_theta2 <= 1.0:
        raise OutOfRangeError(
            f"previous interval ({prev_theta1}, {prev_theta2}) is not ordered in [0, 1]"
        )
    if left and theta == 0.0:
        return (0.0, min(1.0, eta))
    if prev_theta1 == 0.0 and prev_theta2 == 0.0:
        if left:
            return (0.0, theta)
        return (min(1.0, theta + eta), 1.0)
    step = max(eta, (prev_theta2 - prev_theta1) / 2.0)
    if left:
        return (max(0.0, prev_theta2 - step), prev_theta2)
    return (prev_theta1, min(1.0, prev_theta1 + step))


def _halving_schedule(query: ThresholdQuery) -> Iterator[Tuple[Side, float, float]]:
    """Outcome-independent call schedule for bincert.

    Interval construction never looks at tester outcomes, so the sequence of
    testable intervals is fixed by the query alone.  The runner walks this
    schedule and stops early; the budget calculator sums all of it.

    Widths are tracked by exact binary halving rather than recomputed from
    endpoints: subtracting a clamped endpoint can land one ulp above eta and
    would keep a width-eta interval in play forever.
    """
    theta, eta = query.theta, query.eta
    left = (0.0, 0.0)
    right = (0.0, 0.0)
    left_width: Optional[float] = None
    right_width: Optional[float] = None
    while True:
        left = create_interval(theta, left[0], left[1], eta, left=True)
        if left_width is None:
            left_width = eta if theta == 0.0 else theta
        else:
            left_width = max(eta, left_width / 2.0)
        if left_width > eta:
            yield ("proving", left[0], left[1])
        right = create_interval(theta, right[0], right[1], eta, left=False)
        if right_width is None:
            right_width = 1.0 - query.upper
        else:
            right_width = max(eta, right_width / 2.0)
        if right_width > eta:
            yield ("refuting", right[0], right[1])
        if left_width <= eta and right_width <= eta:
            yield ("final", theta, query.upper)
            return


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
) -> Optional[str]:
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
    query: ThresholdQuery,
    entries: Iterable[Tuple[Side, TesterPlan]],
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits],
    batch_size: Optional[int],
    config: Optional[Dict[str, object]],
    notes: Tuple[str, ...],
) -> CertificationReport:
    """Run scheduled tester calls in order until one settles the query.

    Entries are read one at a time, so a lazy schedule plans a call only
    when it is reached.  The limits are checked before each call; a proving
    yes, a refuting no, or any final outcome becomes the verdict.
    """
    started = time.perf_counter()
    calls: List[CallRecord] = []
    total = 0
    verdict: Optional[Verdict] = None

    for side, plan in entries:
        reason = _blocked(limits, total, plan.n_samples, started)
        if reason is not None:
            verdict = Verdict.inconclusive(reason)  # type: ignore[arg-type]
            break
        result = run_tester(plan, oracle, seed, call_index=len(calls), batch_size=batch_size)
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


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def bincert(
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    batch_size: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Adaptive halving certification.

    Alternates ever-narrower proving and refuting intervals toward the
    threshold; any proving yes or refuting no settles the query early, and
    once both flanks are within eta a final call on (theta, theta + eta)
    decides.  Every call runs at delta_min = delta / n where n bounds the
    number of possible calls, so the union of per-call failures stays
    within delta.
    """
    q = validate_query(query)
    params = BinCertParams.from_query(q)
    entries = (
        (side, plan_tester(theta1, theta2, params.delta_min))
        for side, theta1, theta2 in _halving_schedule(q)
    )
    notes = (
        f"halving call budget n = {params.n_calls_bound!r} (base-2 depth), "
        f"delta_min = {params.delta_min!r}",
    )
    return _run_schedule(
        "bincert", q, entries, oracle, seed, limits, batch_size, config, notes
    )


def _lerp(a: float, b: float, num: int, k: int) -> float:
    """Endpoint k of num equal cuts of [a, b]; exact at both ends."""
    t = k / num
    return a * (1.0 - t) + b * t


def _fixed_schedule(
    query: ThresholdQuery, params: FixedCertParams
) -> Iterator[Tuple[Side, float, float, float]]:
    theta = query.theta
    upper = query.upper
    for i in range(1, max(params.n_left, params.n_right) + 1):
        if i <= params.n_left:
            yield (
                "proving",
                theta * ((i - 1) / params.n_left),
                theta * (i / params.n_left),
                params.delta_left,
            )
        if i <= params.n_right:
            j = params.n_right - i + 1
            yield (
                "refuting",
                _lerp(upper, 1.0, params.n_right, j - 1),
                _lerp(upper, 1.0, params.n_right, j),
                params.delta_right,
            )
    yield ("final", theta, upper, params.delta_final)


def fixedcert(
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    batch_size: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Non-adaptive grid certification.

    Both flanks are pre-cut into intervals of pitch about sqrt(eta).
    Proving intervals run leftmost first, refuting intervals rightmost
    first, alternating while both sides last, with a final call on
    (theta, theta + eta).  Each flank splits delta/3 across its calls and
    the final call keeps delta/3.
    """
    q = validate_query(query)
    params = FixedCertParams.from_query(q)
    entries = (
        (side, plan_tester(theta1, theta2, delta_call))
        for side, theta1, theta2, delta_call in _fixed_schedule(q, params)
    )
    notes = (
        f"grid layout: {params.n_left} proving + {params.n_right} refuting "
        f"intervals at pitch sqrt(eta) = {math.sqrt(q.eta)!r}",
    )
    return _run_schedule(
        "fixedcert", q, entries, oracle, seed, limits, batch_size, config, notes
    )


def baseline_samples(query: QueryLike) -> int:
    """Sample size of the naive estimation baseline.

    Smallest integer strictly greater than 12 ln(1/delta) / eta^2, which
    estimates the rate within eta/2 at confidence delta.
    """
    q = validate_query(query)
    bound = 12.0 * math.log(1.0 / q.delta) / (q.eta * q.eta)
    return int(math.floor(bound)) + 1


def estimate_baseline(
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    batch_size: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """One-shot estimation baseline: measure the rate, compare to theta + eta/2.

    The single call is recorded with the band split evenly, eta1 = eta2 =
    eta / 2, and the whole failure budget delta.  It exists to be beaten.
    """
    q = validate_query(query)
    plan = TesterPlan(
        theta1=q.theta,
        theta2=q.upper,
        delta_call=q.delta,
        n_samples=baseline_samples(q),
        eta1=q.eta / 2.0,
        eta2=q.eta / 2.0,
        t=q.theta + q.eta / 2.0,
    )
    return _run_schedule(
        "estimate", q, [("final", plan)], oracle, seed, limits, batch_size, config, ()
    )


def worst_case_budget(query: QueryLike) -> BudgetBound:
    """Worst-case halving budget: closed-form terms plus the exact schedule sum.

    The closed forms bound the left flank, right flank, and final call
    separately; a flank narrower than eta contributes zero.  The exact term
    plans every interval the halving schedule could ever test, so it
    dominates any observed run structurally.
    """
    q = validate_query(query)
    params = BinCertParams.from_query(q)
    big_l = math.log(1.0 / params.delta_min)
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
    exact = sum(
        plan_tester(t1, t2, params.delta_min).n_samples
        for _, t1, t2 in _halving_schedule(q)
    )
    return BudgetBound(k1=k1, k2=k2, k3=k3, exact_schedule_total=int(exact))


StrategyFn = Callable[..., CertificationReport]

STRATEGIES: Dict[str, StrategyFn] = {
    "bincert": bincert,
    "fixedcert": fixedcert,
    "estimate": estimate_baseline,
}


def run_strategy(name: str, *args, **kwargs) -> CertificationReport:
    try:
        fn = STRATEGIES[name]
    except KeyError:
        raise OutOfRangeError(
            f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}"
        ) from None
    return fn(*args, **kwargs)
