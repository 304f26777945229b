"""Certification strategies built on the two-point tester.

All strategies answer the same threshold query and emit the same report
shape; they differ in how they schedule tester calls (Call).  The two
paper strategies share one shape (_flanked): proving intervals below theta
and refuting intervals above theta + eta, alternating proving first while
both flanks last, then one final call on (theta, theta + eta).

* bincert: flanks that halve toward the threshold, cheap when the true
  rate is far from theta; each flank's budgets rise toward the threshold,
  from a share of delta each query picks to make its largest call least.
* fixedcert: flanks cut into a non-adaptive grid of pitch sqrt(eta).
* estimate: the naive baseline that estimates the rate to within eta/2 in
  one giant call.

Per-call failure budgets keep each strategy's wrong-verdict probability
within the query's delta by a union bound over the calls that can give
each wrong verdict (_final_budget).  Every call of a run reads a prefix of
one trial stream (tester.TrialStream), so a run costs its largest call.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from statistics import NormalDist
from typing import (DefaultDict, Dict, Iterable, Iterator, List, Literal, Optional, Sequence,
                    Tuple)

import numpy as np

from .core import (
    OutOfRangeError,
    QuantCertError,
    QueryLike,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
    _check_choice,
    _check_int,
    _check_real,
    validate_query,
)
from .oracle import Oracle
from .tester import (_TAIL, TesterPlan, TrialStream, _binomial, _closed_form, _cutoff,
                     _Deadline, _sample_count, _trim, plan_tester)

Side = Literal["proving", "refuting", "final"]
# A call's interval (theta1, theta2).
Interval = Tuple[float, float]
# A strategy's layout: its report notes and its lazy calls, in run order.
_Layout = Tuple[Tuple[str, ...], Iterator["Call"]]

# Integer quotients like theta/sqrt(eta) can land one ulp under a whole
# number; the nudge keeps layout counts from collapsing by one.
_FLOOR_NUDGE = 1e-9

# bincert gives each flank call this many times the weight of the call
# before it, so the narrow calls next to the threshold, the largest at any
# budget, get the most; each flank's share of delta is k / _SHARE_STEPS
# for a whole k (_flank_share).
_RISE = 4.0
_SHARE_STEPS = 1024

# Every float is a whole number of 2^-1074: _final_budget puts a float
# n / d, d = 2^e, on that grid as n << (_GRID - d.bit_length()), a shift
# of 1074 - e.
_GRID = 1075


class ReportInvariantError(QuantCertError):
    """A strategy produced a report violating its own guarantees."""


@dataclass(frozen=True)
class Call:
    """One scheduled tester call.  S(n), the successes among the stream's
    first n = plan.n_samples trials, settles a run yes at S(n) <= a and no
    at S(n) > b; in between the run reads on.  Building a call checks
    0 <= n and -1 <= a <= b <= n, so runs and schedule_law read it as is."""

    plan: TesterPlan
    a: int
    b: int

    def __post_init__(self) -> None:
        n = self.plan.n_samples
        if not (0 <= n and -1 <= self.a <= self.b <= n):
            raise OutOfRangeError(f"a call needs 0 <= n and -1 <= a <= b <= n, got n = {n}, "
                                  f"a = {self.a}, b = {self.b}")

    @property
    def side(self) -> Side:
        """The side the call argues for, as reports print it."""
        return "final" if self.a == self.b else "refuting" if self.a < 0 else "proving"


def _entry(side: Side, plan: TesterPlan) -> Call:
    """A side's call on plan: bounds proving (c, n), refuting (-1, c), final (c, c)."""
    n, c = plan.n_samples, plan.c
    return Call(plan, *{"proving": (c, n), "refuting": (-1, c), "final": (c, c)}[side])


@dataclass(frozen=True)
class CallRecord(Call):
    """One completed tester call and the successes among its n trials."""

    successes: int

    @property
    def tally(self) -> SampleTally:
        return SampleTally(self.plan.n_samples, self.successes)

    @property
    def outcome(self) -> Literal["yes", "no"]:
        """yes when the successes are at most the plan's cutoff c."""
        return "yes" if self.successes <= self.plan.c else "no"

    @property
    def settles(self) -> Optional[Literal["yes", "no"]]:
        """yes at successes <= a, no at successes > b, None when the run reads on."""
        return "yes" if self.successes <= self.a else "no" if self.successes > self.b else None


@dataclass(frozen=True)
class ResourceLimits:
    """Optional caps on one run; zero is allowed.

    max_samples ends a run budget-exhausted at its first call larger than
    the cap (_capped), so it caps the run's stream.  max_wall_ms ends it
    timeout at the first draw due once that many ms have passed, so a run
    overshoots by at most one draw; the call it cut is not recorded.  That
    draw is not bounded: a SubprocessProperty draw waits in readline for as
    long as its child lives (ROADMAP item 11).
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
        "c": plan.c,
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
    left and right flank in closed form, and k3 the final call; the
    exact schedule total is the largest planned size of every call the
    schedule could ever make, so no run's total exceeds it.
    """

    k1: int
    k2: int
    k3: int
    exact_schedule_total: int

    @property
    def analytic_total(self) -> int:
        """The closed-form bound on any run's total, max(k1, k2, k3)."""
        return max(self.k1, self.k2, self.k3)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _halving_calls(query: ThresholdQuery) -> float:
    """Bound n on the number of halving calls; 1/n^2 floors each flank call's weight.

    n = 3 + log2(theta/eta) + log2((1 - theta - eta)/eta), each log clipped
    at 0.
    """
    theta, eta = query.theta, query.eta
    room = 1.0 - query.upper
    left = max(0.0, math.log2(theta / eta)) if theta > 0.0 else 0.0
    right = max(0.0, math.log2(room / eta)) if room > 0.0 else 0.0
    return 3.0 + left + right


def _halving_flanks(query: ThresholdQuery) -> Tuple[List[Interval], List[Interval]]:
    """bincert's proving and refuting intervals, each flank in run order.

    The first proving interval is (0, theta) and the first refuting one
    (theta + eta, 1); each step halves the previous width, never below eta,
    keeping the threshold-side end pinned, and clamps the far end to
    [0, 1].  A flank is tested while its width exceeds eta, so at theta = 0
    the left flank is empty.  Neither flank's widths depend on the other's.

    Widths are tracked by exact binary halving rather than recomputed from
    endpoints: subtracting a clamped endpoint can land one ulp above eta and
    would keep a width-eta interval in play forever.
    """
    theta, upper, eta = query.theta, query.upper, query.eta
    proving: List[Interval] = []
    lo, width = 0.0, theta
    while width > eta:
        proving.append((lo, theta))
        lo = max(0.0, theta - max(eta, (theta - lo) / 2.0))
        width = max(eta, width / 2.0)
    refuting: List[Interval] = []
    hi, width = 1.0, 1.0 - upper
    while width > eta:
        refuting.append((upper, hi))
        hi = min(1.0, upper + max(eta, (hi - upper) / 2.0))
        width = max(eta, width / 2.0)
    return proving, refuting


def _rising_budgets(total: float, calls: int, floor: float) -> List[float]:
    """total split over a flank's calls, in run order, rising toward the threshold.

    The call j steps before the flank's last gets weight
    max(_RISE^-j, floor), normalised over the flank.  The floor keeps every
    budget a positive float where _RISE^-j underflows, and far calls test
    wide intervals, cheap at any budget.  The budgets are floats whose sum
    may land a few ulps off total; _final_budget sums them exactly.
    """
    if not calls:
        return []
    weights = [max(_RISE ** -j, floor) for j in range(calls - 1, -1, -1)]
    scale = total / math.fsum(weights)
    return [weight * scale for weight in weights]


# z(b) = -_NORMAL.inv_cdf(b): a call at budget b takes about (z(b) A)^2
# trials under the normal approximation, A its _spread.
_NORMAL = NormalDist()


def _spread(theta1: float, theta2: float) -> float:
    """A = (sigma1 + sigma2) / (theta2 - theta1), sigma = sqrt(theta (1 - theta))."""
    sigmas = math.sqrt(theta1 * (1.0 - theta1)) + math.sqrt(theta2 * (1.0 - theta2))
    return sigmas / (theta2 - theta1)


@lru_cache(maxsize=256)
def _flank_share(theta: float, eta: float, delta: float) -> int:
    """k for bincert's flank share k / _SHARE_STEPS of delta: the k whose
    largest call is least under the normal approximation (_NORMAL).

    Calls are compared by z A, not its square, so nothing overflows.  The
    final call grows with k and each flank call shrinks, so the best k is
    where the final call meets the largest flank call: bisect k for the
    least one at which no flank call is larger than the final call, then
    keep the better of it and the k below.  k stays under
    _SHARE_STEPS (1 - 1/n), so the final call gets at least delta/n for the
    halving call bound n.  A schedule without a flank call gives its flanks
    k = 0.  The last 256 queries' shares are cached, as plans are
    (tester._plan).
    """
    query = ThresholdQuery(theta, eta, delta)
    n = _halving_calls(query)
    # each flank call's part of its flank's share, and its spread
    calls = [(weight, _spread(*interval)) for flank in _halving_flanks(query)
             for weight, interval in zip(_rising_budgets(1.0, len(flank), 1.0 / (n * n)), flank)]
    if not calls:
        return 0
    final_spread = _spread(theta, query.upper)

    def final_root(k: int) -> float:
        """z A of the final call at share k, z floored at 0."""
        return max(0.0, -_NORMAL.inv_cdf(delta - k / _SHARE_STEPS * delta)) * final_spread

    def fits(k: int, root: float) -> bool:
        """Whether no flank call at share k has z A above root: each budget is
        at least Phi(-root / A).  So only the final call's budget, at least
        delta/n, reaches inv_cdf, never a flank budget that underflows."""
        share = k / _SHARE_STEPS * delta
        return all(share * weight >= _NORMAL.cdf(-root / spread) for weight, spread in calls)

    lo, hi = 1, math.ceil(_SHARE_STEPS * (1.0 - 1.0 / n)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid, final_root(mid)):
            hi = mid
        else:
            lo = mid + 1
    # Below lo the largest call is a flank call; keep lo - 1 if that call is
    # no larger than the final call at lo.
    return lo - 1 if lo > 1 and fits(lo - 1, final_root(lo)) else lo


def _final_budget(delta: float, proving: Sequence[float], refuting: Sequence[float]) -> float:
    """The final call's budget: delta less the larger flank's budget sum.

    Each flank is the budgets of its calls.  Only a proving call or the
    final call can give a wrong yes, and only a refuting call or the final
    call a wrong no, so the union bound holds for each verdict when each
    flank's budgets plus the final call's sum to at most delta.  The sums
    are taken exactly and the budget rounded down, so each side's exact
    sum, and its math.fsum, stays within delta.  bincert's flanks each get
    k/1024 of delta (_flank_share), so its final call gets about
    (1 - k/1024) delta, at least delta/n for its halving call bound n;
    fixedcert's final call gets 2 delta/3 less a few ulps.
    """
    # On the 2^-1074 grid (_GRID) each sum and the difference are exact
    # integers, one shift a float; int / int rounds the difference to
    # nearest, stepped down when that lands above.
    spent = 0
    for flank in (proving, refuting):
        total = 0
        for budget in flank:
            n, d = budget.as_integer_ratio()
            total += n << (_GRID - d.bit_length())
        spent = max(spent, total)
    num, den = delta.as_integer_ratio()
    left = (num << (_GRID - den.bit_length())) - spent
    final = left / (1 << (_GRID - 1))
    top, bottom = final.as_integer_ratio()
    return math.nextafter(final, 0.0) if top << (_GRID - bottom.bit_length()) > left else final


def _lerp(a: float, b: float, num: int, k: int) -> float:
    """Endpoint k of num equal cuts of [a, b]; exact at both ends."""
    t = k / num
    return a * (1.0 - t) + b * t


def _flanked(
    query: ThresholdQuery,
    proving: List[Interval],
    refuting: List[Interval],
    budgets: Tuple[List[float], List[float]],
) -> Tuple[float, Iterator[Call]]:
    """A paper strategy's final budget and its lazy calls, in run order.

    The flanks alternate, proving first, while both last; then come the
    rest of the longer flank and a final call on (theta, theta + eta).
    Each flank call runs at its budget in budgets, (proving, refuting),
    each list in run order, and the final call at what the larger flank
    leaves (_final_budget).
    """
    delta_final = _final_budget(query.delta, *budgets)
    pairs = itertools.zip_longest(
        [("proving", lo, hi, budget) for (lo, hi), budget in zip(proving, budgets[0])],
        [("refuting", lo, hi, budget) for (lo, hi), budget in zip(refuting, budgets[1])],
    )
    rows = [row for pair in pairs for row in pair if row is not None]
    rows.append(("final", query.theta, query.upper, delta_final))
    return delta_final, (
        _entry(side, plan_tester(theta1, theta2, delta_call))
        for side, theta1, theta2, delta_call in rows
    )


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
    budgets: Dict[Side, List[float]] = {"proving": [], "refuting": [], "final": []}
    for rec in report.calls:
        side, plan = rec.side, rec.plan
        budgets[side].append(plan.delta_call)
        if side == "proving" and not plan.theta2 <= query.theta:
            raise ReportInvariantError(
                f"proving interval reaches {plan.theta2} above theta {query.theta}"
            )
        if side == "refuting" and not plan.theta1 >= query.upper:
            raise ReportInvariantError(
                f"refuting interval starts at {plan.theta1} below theta+eta {query.upper}"
            )
        if side == "final" and (plan.theta1 != query.theta or plan.theta2 != query.upper):
            raise ReportInvariantError("final call must test (theta, theta+eta)")
    # Each side's budgets and the final call's sum within delta (_final_budget).
    for side in ("proving", "refuting"):
        spent = math.fsum(budgets[side] + budgets["final"])
        if spent > query.delta:
            raise ReportInvariantError(
                f"{side} and final budgets sum to {spent!r}, above delta {query.delta!r}"
            )
    # A run stops at its first call that settles: every earlier call reads
    # on, and the last settles with the verdict's kind, or reads on when a
    # limit left the run inconclusive.
    settles = [rec.settles for rec in report.calls]
    for i, settled in enumerate(settles[:-1]):
        if settled:
            raise ReportInvariantError(f"call {i} settles {settled} before the last call")
    kind = report.verdict.kind
    settled = settles[-1] if settles else None
    if kind == "inconclusive" and settled:
        raise ReportInvariantError(f"inconclusive verdict after a last call that settles {settled}")
    if kind != "inconclusive" and settled != kind:
        raise ReportInvariantError(f"{kind} verdict without a supporting final call")
    return report


def _capped(calls: Iterable[Call], max_samples: Optional[int]) -> Iterable[Call]:
    """The calls up to the first one larger than max_samples: the one cap rule."""
    if max_samples is None:
        return calls
    cap = _check_int("max_samples", max_samples, 0)
    return itertools.takewhile(lambda call: call.plan.n_samples <= cap, calls)


def run_tester(call: Call, stream: TrialStream) -> CallRecord:
    """One call: count the successes among trials [0, plan.n_samples) of the stream.

    Only trials the stream has not drawn yet are drawn; a call inside the
    stream reads the outcomes it keeps and draws nothing.
    """
    return CallRecord(call.plan, call.a, call.b, stream.successes(call.plan.n_samples))


def _run_schedule(
    strategy: str,
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Run a strategy's scheduled tester calls in order until one settles the query.

    Calls are read one at a time, so a call is planned only when it is
    reached.  Every call reads a prefix of the run's one trial stream, and
    the report's total_samples is the stream's length: the largest call,
    or in a run cut by its deadline every trial drawn, the cut call's
    included.  max_samples caps the calls, max_wall_ms is the stream's
    deadline, and the first call that settles the run (CallRecord.settles)
    gives the verdict.
    """
    query = validate_query(query)
    notes, scheduled = schedule(strategy, query)
    started = time.perf_counter()
    wall = limits.max_wall_ms if limits else None
    stream = TrialStream(oracle, seed, None if wall is None else started + wall / 1000.0)
    calls: List[CallRecord] = []

    try:
        for call in _capped(scheduled, limits.max_samples if limits else None):
            calls.append(run_tester(call, stream))
            if settled := calls[-1].settles:
                verdict = Verdict(settled)
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


def schedule_law(
    scheduled: Iterable[Call],
    p: float,
    max_samples: Optional[int] = None,
) -> ScheduleLaw:
    """The law of a run of these calls against Bernoulli(p), computed.

    Same rules as the run but max_wall_ms: a call larger than max_samples
    ends it inconclusive (_capped), a call ends it yes at S(n_k) <= a_k and
    no at S(n_k) > b_k, and a run's total is the largest call it made.
    S(n) counts the successes among the first n trials of one stream, which
    every call reads a prefix of, so the calls are dependent.

    A dynamic program walks the distinct call sizes in increasing order.
    Its state is S(n) together with the earliest call in schedule order
    that settles a run on the trials seen so far; between sizes n < n' the
    count distribution is convolved with Bin(n' - n, p).  A state whose
    settling call precedes every call still to come is final and keeps only
    its probability.  Calls are read until one settles every run that
    reaches it, so a run that surely settles early plans nothing more.
    Binomial tails, the tails of each state's count distribution and whole
    states of mass at most 1e-30 are dropped at each step, so each figure
    may fall short by that much per step.
    """
    p = _check_real("p", p, "[0, 1]")
    calls: List[Call] = []
    for call in _capped(scheduled, max_samples):
        calls.append(call)
        n = call.plan.n_samples
        # S(n) takes lo..hi: only 0 at p = 0, only n at p = 1.  A call that
        # reads on at none of them settles every run that reaches it.
        lo, hi = (0 if p < 1.0 else n), (n if p > 0.0 else 0)
        if min(call.b, hi) <= max(call.a, lo - 1):
            break
    sizes = [call.plan.n_samples for call in calls]
    # A run settled by call k has made calls 0..k and drawn their largest.
    totals = list(itertools.accumulate(sizes, max, initial=0))[1:]
    order = sorted(range(len(calls)), key=lambda k: (sizes[k], k))
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
        n, call = sizes[k], calls[k]
        pieces: Dict[Tuple[int, str], List[Tuple[int, np.ndarray]]] = {}
        for label in [label for label in states if label[0] > k]:
            at, lo, mass = states.pop(label)
            if n > at:
                low, pmf = _binomial(n - at, p)
                lo, mass = _trim(lo + low, np.convolve(mass, pmf))
            yes = min(max(call.a + 1 - lo, 0), mass.size)
            no = min(max(call.b + 1 - lo, yes), mass.size)
            says = {(k, "yes"): (lo, mass[:yes]), label: (lo + yes, mass[yes:no]),
                    (k, "no"): (lo + no, mass[no:])}
            for settled, part in says.items():
                if part[1].size:
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

    Each term is the largest closed form the planner's bisection starts at,
    ceil(8 theta2 L / width^2) with L = ln(1 / delta_call)
    (tester._closed_form), over one part of the schedule, each call taken
    at its own interval and budget: k1 over the proving calls, k2 over the
    refuting calls and k3 the final call.  A plan is never larger than its
    closed form, so each term bounds its part's largest call; a flank the
    schedule makes no call on contributes zero.  The exact term plans every
    interval the halving schedule could ever test and keeps the largest
    size, so it dominates any observed run structurally.
    """
    q = validate_query(query)
    calls = list(schedule("bincert", q)[1])
    terms: Dict[Side, int] = dict.fromkeys(("proving", "refuting", "final"), 0)
    for call in calls:
        plan = call.plan
        size = _closed_form(plan.theta2, plan.theta2 - plan.theta1, plan.delta_call)
        terms[call.side] = max(terms[call.side], size)
    return BudgetBound(
        k1=terms["proving"],
        k2=terms["refuting"],
        k3=terms["final"],
        exact_schedule_total=max(call.plan.n_samples for call in calls),
    )


def _bincert(query: ThresholdQuery) -> _Layout:
    """Each flank splits its share of delta (_flank_share) by weights that
    rise toward the threshold (_rising_budgets)."""
    n = _halving_calls(query)
    flanks = _halving_flanks(query)
    k = _flank_share(query.theta, query.eta, query.delta)
    budgets = tuple(_rising_budgets(k / _SHARE_STEPS * query.delta, len(flank), 1.0 / (n * n))
                    for flank in flanks)
    delta_final, calls = _flanked(query, *flanks, budgets)
    notes = (
        f"halving call bound n = {n!r} (base-2 depth); each flank splits "
        f"{k}/{_SHARE_STEPS} of delta by weights max(4^-j, 1/n^2), j calls before its last; "
        f"delta_final = {delta_final!r}",
    )
    return notes, calls


def _fixedcert(query: ThresholdQuery) -> _Layout:
    """Proving intervals leftmost first, refuting ones rightmost first.

    Each non-empty flank splits delta/3 evenly over its calls.  bincert's
    share rule (_flank_share) would cut fixedcert's flanks to about 1/512
    of delta, so they would settle far fewer runs: on (0.1, 0.05, 0.1) at
    p = 0.5 a run would cost 175 samples on average, not 63.
    """
    theta, upper, delta = query.theta, query.upper, query.delta
    pitch = math.sqrt(query.eta)
    n_left = int(math.floor(theta / pitch + _FLOOR_NUDGE))
    n_right = int(math.floor((1.0 - upper) / pitch + _FLOOR_NUDGE))
    notes = (
        f"grid layout: {n_left} proving + {n_right} refuting "
        f"intervals at pitch sqrt(eta) = {pitch!r}",
    )
    proving = [(_lerp(0.0, theta, n_left, k - 1), _lerp(0.0, theta, n_left, k))
               for k in range(1, n_left + 1)]
    refuting = [(_lerp(upper, 1.0, n_right, k - 1), _lerp(upper, 1.0, n_right, k))
                for k in range(n_right, 0, -1)]
    budgets = tuple([delta / (3.0 * k)] * k if k else [] for k in (n_left, n_right))
    return notes, _flanked(query, proving, refuting, budgets)[1]


def _estimate(query: ThresholdQuery) -> _Layout:
    n = baseline_samples(query)
    c = _cutoff(n, Fraction(query.theta) + Fraction(query.eta) / 2)
    return (), iter([_entry("final", TesterPlan(query.theta, query.upper, query.delta, n, c))])


# Each strategy's layout by its name: the one place strategy names are written.
_LAYOUTS = {"bincert": _bincert, "fixedcert": _fixedcert, "estimate": _estimate}

STRATEGIES = {name: partial(_run_schedule, name) for name in _LAYOUTS}


def run_strategy(
    name: str,
    query: QueryLike,
    oracle: Oracle,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Certify ``query`` against ``oracle`` with the named strategy.

    The call goes through STRATEGIES[name], name checked by _check_choice,
    so a wrapper placed there sees every run.  See schedule for each one.
    """
    certify = STRATEGIES[_check_choice("strategy", name, STRATEGIES)]
    return certify(query, oracle, seed, limits, config)


def schedule(strategy: str, query: QueryLike) -> _Layout:
    """A strategy's report notes and the Calls it runs, in order.

    The strategy's name, checked by _check_choice, picks its layout from
    _LAYOUTS, the one place it decides anything: the layout of the calls
    and the split of delta across them.  bincert and fixedcert lay out two
    flanks and a final call, alternating the flanks proving first while
    both last (_flanked).  bincert gives each flank a share k/1024 of
    delta, the k whose largest call is least under the normal
    approximation (_flank_share), split by weights that rise 4x per call
    toward the threshold, floored at 1/n^2 for the halving call bound n
    (_rising_budgets, _halving_calls); fixedcert gives each flank delta/3,
    split evenly over its grid.  The final call of both gets what the
    larger flank leaves of delta (_final_budget).  estimate makes one call
    at delta with the boundary theta + eta/2.  The calls are lazy: a plan
    is made when its call is read, so a run that settles early plans
    nothing more.  Runs, worst_case_budget and schedule_law read them.
    """
    return _LAYOUTS[_check_choice("strategy", strategy, _LAYOUTS)](validate_query(query))
