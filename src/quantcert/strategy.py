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
probability stays within the query's delta by a union bound.  Every call
of a run reads a prefix of one trial stream (tester.TrialStream), so a run
costs its largest call.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import DefaultDict, Dict, Iterable, Iterator, List, Literal, Optional, Tuple

import numpy as np

from .core import (
    OutOfRangeError,
    QuantCertError,
    QueryLike,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
    _check_int,
    _check_real,
    validate_query,
)
from .oracle import Oracle
from .tester import TesterPlan, TrialStream, _Deadline, _sample_count, plan_tester

Side = Literal["proving", "refuting", "final"]

# Integer quotients like theta/sqrt(eta) can land one ulp under a whole
# number; the nudge keeps layout counts from collapsing by one.
_FLOOR_NUDGE = 1e-9


class ReportInvariantError(QuantCertError):
    """A strategy produced a report violating its own guarantees."""


@dataclass(frozen=True)
class CallRecord:
    """One completed tester call: the side it argued for, its plan, and the
    successes among the stream's first plan.n_samples trials."""

    side: Side
    plan: TesterPlan
    successes: int

    @property
    def tally(self) -> SampleTally:
        return SampleTally(self.plan.n_samples, self.successes)

    @property
    def outcome(self) -> Literal["yes", "no"]:
        """yes when the successes are at most the plan's cutoff c."""
        return "yes" if self.successes <= self.plan.c else "no"


def _settles(side: Side, outcome: str) -> bool:
    """Whether a call on this side settles the query when it answers outcome.

    A proving call settles on yes, a refuting call on no, a final call on either.
    """
    return side == "final" or outcome == ("yes" if side == "proving" else "no")


@dataclass(frozen=True)
class ResourceLimits:
    """Optional caps on one run; zero is allowed.

    max_samples ends a run budget-exhausted at its first call larger than
    the cap (_capped), so it caps the run's stream.  max_wall_ms ends it
    timeout at the first draw due once that many ms have passed, so a run
    overshoots by at most one draw; the call it cut is not recorded.
    """

    max_samples: Optional[int] = None
    max_wall_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_samples is not None:
            cap = _check_int("max_samples", self.max_samples, 0)
            object.__setattr__(self, "max_samples", cap)
        if self.max_wall_ms is not None:
            wall = _check_real("max_wall_ms", self.max_wall_ms, "[0, inf]")
            object.__setattr__(self, "max_wall_ms", wall)


def _plan_fields(plan: TesterPlan) -> Dict[str, object]:
    """A plan as reports and ``quantcert plan`` print it."""
    return {
        "theta1": plan.theta1,
        "theta2": plan.theta2,
        "delta_call": plan.delta_call,
        "n": plan.n_samples,
        "eta1": plan.eta1,
        "eta2": plan.eta2,
        "t": plan.t,
    }


@dataclass(frozen=True)
class CertificationReport:
    """One run's verdict and the calls that reached it.

    total_samples is the length of the run's trial stream: its largest
    call, 0 with no call, except in a run cut by its deadline, whose
    stream also holds the trials the cut call drew.
    """

    query: ThresholdQuery
    strategy: str
    verdict: Verdict
    seed: SeedSpec
    calls: Tuple[CallRecord, ...]
    total_samples: int
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
                    **_plan_fields(rec.plan),
                    "successes": rec.successes,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(include_timing=True), indent=2)

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

    A run costs its largest call.  k1 and k2 bound the largest call of the
    left and right flank in closed form, and k3 is the final call; the
    exact schedule total is the largest planned size of every call the
    schedule could ever make, so no run's total exceeds it.
    """

    k1: float
    k2: float
    k3: float
    exact_schedule_total: int

    @property
    def analytic_total(self) -> float:
        """The closed-form bound on any run's total, max(k1, k2, k3)."""
        return max(self.k1, self.k2, self.k3)


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
    # Every call counts a prefix of one stream, which starts empty: a longer
    # prefix holds no fewer successes, and no more new ones than the trials
    # it adds.
    prefixes = [(0, 0)] + sorted((rec.plan.n_samples, rec.successes) for rec in report.calls)
    for (n, s), (longer, more) in zip(prefixes, prefixes[1:]):
        if not 0 <= more - s <= longer - n:
            raise ReportInvariantError(
                f"prefix tallies disagree: {s} successes in {n} trials, {more} in {longer}"
            )
    # The stream is as long as the largest call, longer only when the
    # deadline cut a call that had begun drawing.
    largest, total = prefixes[-1][0], report.total_samples
    if total < largest or (total > largest and report.verdict.reason != "timeout"):
        raise ReportInvariantError(
            f"total_samples {total} does not match the largest call, {largest} trials"
        )
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
    kind = report.verdict.kind
    if kind != "inconclusive":
        last = report.calls[-1] if report.calls else None
        if last is None or last.outcome != kind or not _settles(last.side, kind):
            raise ReportInvariantError(f"{kind} verdict without a supporting final call")
    return report


def _capped(
    entries: Iterable[Tuple[Side, TesterPlan]], max_samples: Optional[int]
) -> Iterable[Tuple[Side, TesterPlan]]:
    """The entries up to the first call larger than max_samples: the one cap rule."""
    if max_samples is None:
        return entries
    return itertools.takewhile(lambda entry: entry[1].n_samples <= max_samples, entries)


def run_tester(side: Side, plan: TesterPlan, stream: TrialStream) -> CallRecord:
    """One call: count the successes among trials [0, plan.n_samples) of the stream.

    Only trials the stream has not drawn yet are drawn; a call inside the
    stream reads the outcomes it keeps and draws nothing.
    """
    return CallRecord(side, plan, stream.successes(plan.n_samples))


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
    reached.  Every call reads a prefix of the run's one trial stream, and
    the report's total_samples is the stream's length: the largest call,
    or in a run cut by its deadline every trial drawn, the cut call's
    included.  max_samples caps the entries, max_wall_ms is the stream's
    deadline, and the first call whose outcome settles the query
    (_settles) gives the verdict.
    """
    query = validate_query(query)
    notes, entries = schedule(strategy, query)
    started = time.perf_counter()
    max_samples = limits.max_samples if limits else None
    wall = limits.max_wall_ms if limits else None
    stream = TrialStream(oracle, seed, None if wall is None else started + wall / 1000.0)
    calls: List[CallRecord] = []

    try:
        for side, plan in _capped(entries, max_samples):
            calls.append(run_tester(side, plan, stream))
            outcome = calls[-1].outcome
            if _settles(side, outcome):
                verdict = Verdict(outcome)
                break
        else:
            # Every schedule ends in a final call, so only the cap leaves a run open.
            verdict = Verdict("inconclusive", "budget-exhausted")
    except _Deadline:
        verdict = Verdict("inconclusive", "timeout")

    report = CertificationReport(
        query=query,
        strategy=strategy,
        verdict=verdict,
        seed=seed,
        calls=tuple(calls),
        total_samples=stream.length,
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


# Probability mass the law may drop at each step: a binomial tail, the tail
# of a run-state's count distribution, or a whole run-state.
_TAIL = 1e-30


def _trim(lo: int, mass: np.ndarray) -> Tuple[int, np.ndarray]:
    """Drop the longest head and the longest tail of ``mass`` holding at most _TAIL each."""
    head = int(np.searchsorted(np.cumsum(mass), _TAIL, side="right"))
    tail = int(np.searchsorted(np.cumsum(mass[::-1]), _TAIL, side="right"))
    return lo + head, mass[head : max(head, mass.size - tail)]


def _binomial(m: int, p: float) -> Tuple[int, np.ndarray]:
    """Bin(m, p) as (lo, pmf of lo, lo + 1, ...), each tail cut at most _TAIL.

    Hoeffding's bound puts at most _TAIL beyond m p -/+ sqrt(m ln(1/_TAIL) / 2);
    inside, the pmf comes from the ratio recursion in log space, scaled to
    sum to 1.
    """
    if p == 0.0 or p == 1.0:
        return (m if p == 1.0 else 0), np.ones(1)
    half = math.sqrt(m * math.log(1.0 / _TAIL) / 2.0)
    lo = max(0, math.floor(m * p - half))
    hi = min(m, math.ceil(m * p + half))
    k = np.arange(lo, hi, dtype=np.float64)
    steps = np.log((m - k) / (k + 1.0)) + (math.log(p) - math.log1p(-p))
    logs = np.concatenate(([0.0], np.cumsum(steps)))
    pmf = np.exp(logs - logs.max())
    pmf /= pmf.sum()
    return _trim(lo, pmf)


def schedule_law(
    entries: Iterable[Tuple[Side, TesterPlan]],
    p: float,
    max_samples: Optional[int] = None,
) -> ScheduleLaw:
    """The law of a run of these entries against Bernoulli(p), computed.

    Same rules as the run but max_wall_ms: a call larger than max_samples
    ends it inconclusive (_capped), a call whose outcome settles (_settles)
    ends it, and a run's total is the largest call it made.  Every call k
    reads a prefix of one stream, so it says yes when S(n_k) <= c_k, where
    S(n) counts the successes among the first n trials; they are dependent.

    A dynamic program walks the distinct call sizes in increasing order.
    Its state is S(n) together with the earliest call in schedule order
    that settles a run on the trials seen so far; between sizes n < n' the
    count distribution is convolved with Bin(n' - n, p).  A state whose
    settling call precedes every call still to come is final and keeps only
    its probability.  Entries are read until one settles every run that
    reaches it, so a run that surely settles early plans nothing more.
    Binomial tails, the tails of each state's count distribution and whole
    states of mass at most 1e-30 are dropped at each step, so each figure
    may fall short by that much per step.
    """
    p = _check_real("p", p, "[0, 1]")
    calls: List[Tuple[Side, int, int]] = []
    for side, plan in _capped(entries, max_samples):
        n, c = plan.n_samples, plan.c
        calls.append((side, n, c))
        # The counts S(n) can take: only 0 at p = 0, only n at p = 1.  A
        # call that settles on both ends settles every run that reaches it.
        reachable = (0 if p < 1.0 else n, n if p > 0.0 else 0)
        if all(_settles(side, "yes" if s <= c else "no") for s in reachable):
            break
    # A run settled by call k has made calls 0..k and drawn their largest.
    totals = list(itertools.accumulate((n for _, n, _ in calls), max, initial=0))[1:]
    order = sorted(range(len(calls)), key=lambda k: (calls[k][1], k))
    # The earliest call still to come after each step of the walk.
    upcoming = list(itertools.accumulate(reversed(order), min, initial=len(calls)))[::-1][1:]

    # label (settling call, verdict) -> (n, lo, mass of S(n) = lo, lo + 1, ...);
    # runs not settled yet carry the label (len(calls), "").
    states: Dict[Tuple[int, str], Tuple[int, int, np.ndarray]] = {
        (len(calls), ""): (0, 0, np.ones(1))
    }
    ends = {"yes": 0.0, "no": 0.0}
    samples: DefaultDict[int, float] = defaultdict(float)
    for k, first_left in zip(order, upcoming):
        side, n, c = calls[k]
        pieces: Dict[Tuple[int, str], List[Tuple[int, np.ndarray]]] = {}
        for label in [label for label in states if label[0] > k]:
            at, lo, mass = states.pop(label)
            if n > at:
                low, pmf = _binomial(n - at, p)
                lo, mass = _trim(lo + low, np.convolve(mass, pmf))
            cut = min(max(c + 1 - lo, 0), mass.size)
            says = {"yes": (lo, mass[:cut]), "no": (lo + cut, mass[cut:])}
            for verdict, part in says.items():
                if part[1].size:
                    settled = (k, verdict) if _settles(side, verdict) else label
                    pieces.setdefault(settled, []).append(part)
        for label, parts in pieces.items():
            lo = min(part_lo for part_lo, _ in parts)
            mass = np.zeros(max(part_lo + part.size for part_lo, part in parts) - lo)
            for part_lo, part in parts:
                mass[part_lo - lo : part_lo - lo + part.size] += part
            if mass.sum() > _TAIL:
                states[label] = (n, lo, mass)
        # A settled run whose call precedes every call to come stays settled.
        for label in [label for label in states if label[0] < first_left]:
            weight = float(states.pop(label)[2].sum())
            ends[label[1]] += weight
            samples[totals[label[0]]] += weight
    # Runs not settled were blocked by max_samples or ran out of calls.
    unsettled = math.fsum(float(mass.sum()) for _, _, mass in states.values())
    if unsettled > 0.0:
        samples[totals[-1] if totals else 0] += unsettled
    return ScheduleLaw(
        ends["yes"], ends["no"], unsettled,
        tuple((t, w) for t, w in sorted(samples.items()) if w > 0.0),
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def baseline_samples(query: QueryLike) -> int:
    """Sample size of the naive estimation baseline.

    Smallest integer strictly greater than 12 ln(1/delta) / eta^2, which
    estimates the rate within eta/2 at confidence delta.  Raises
    OutOfRangeError when that bound overflows.
    """
    q = validate_query(query)
    bound = 12.0 * math.log(1.0 / q.delta) / (q.eta * q.eta)
    n = _sample_count(bound)
    return n + 1 if n == bound else n


def worst_case_budget(query: QueryLike) -> BudgetBound:
    """Worst-case halving budget: closed-form terms plus the exact largest call.

    With C = (sqrt 3 + sqrt 2)^2 and L = ln(n / delta) for the halving call
    bound n, a proving call on an interval wider than eta needs at most
    theta C / eta^2 L samples and a refuting one at most C / eta^2 L; a
    flank the schedule makes no call on contributes zero.  The exact term
    plans every interval the halving schedule could ever test and keeps the
    largest size, so it dominates any observed run structurally.  Raises
    OutOfRangeError when a bound overflows.
    """
    q = validate_query(query)
    big_l = math.log(1.0 / (q.delta / _halving_calls(q)))
    const = (math.sqrt(3.0) + math.sqrt(2.0)) ** 2
    theta, eta = q.theta, q.eta
    _, entries = schedule("bincert", q)
    sizes: Dict[str, int] = {}
    for side, plan in entries:
        sizes[side] = max(sizes.get(side, 0), plan.n_samples)
    k1 = theta * const / (eta * eta) * big_l if "proving" in sizes else 0.0
    k2 = const / (eta * eta) * big_l if "refuting" in sizes else 0.0
    k3 = (
        (math.sqrt(3.0 * theta) + math.sqrt(2.0 * q.upper)) ** 2 / (eta * eta) * big_l
    )
    _sample_count(max(k1, k2, k3))  # an overflowing bound is bad input, as in planning
    return BudgetBound(k1=k1, k2=k2, k3=k3, exact_schedule_total=max(sizes.values()))


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
