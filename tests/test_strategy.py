import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quantcert import (
    BernoulliOracle,
    OutOfRangeError,
    ReportInvariantError,
    ResourceLimits,
    SeedSpec,
    ThresholdQuery,
    run_strategy,
)
from quantcert.core import SampleTally, Verdict
from quantcert.strategy import (
    STRATEGIES,
    Call,
    CallRecord,
    CertificationReport,
    baseline_samples,
    schedule,
    schedule_law,
    worst_case_budget,
)
from quantcert import strategy
from quantcert.tester import TesterPlan as HandPlan
from quantcert.tester import _closed_form, _sample_count, plan_tester
from quantcert.strategy import _check_report, _entry, _final_budget, _halving_calls
from conftest import CountingOracle, assert_per_side, parent_budgets, schedule_rows


def _intervals(name, query):
    """(side, theta1, theta2) of every entry of the schedule, in run order."""
    return [row[:3] for row in schedule_rows(name, query)]


def _spent(name, query):
    """(side, delta_call) of every entry of the schedule, in run order."""
    return [(side, delta_call) for side, _, _, delta_call in schedule_rows(name, query)]


class TestCreateInterval:
    """The endpoint arithmetic of bincert's halving steps, on schedule rows."""

    def test_first_left_interval(self):
        rows = _intervals("bincert", ThresholdQuery(0.1, 1e-3, 0.01))
        assert rows[0] == ("proving", 0.0, 0.1)

    def test_first_right_interval(self):
        rows = _intervals("bincert", ThresholdQuery(0.1, 0.05, 0.1))
        _, lo, hi = rows[1]
        assert rows[1][0] == "refuting" and lo == 0.1 + 0.05 and hi == 1.0

    def test_left_halving_keeps_inner_end(self):
        rows = _intervals("bincert", ThresholdQuery(0.1, 1e-3, 0.01))
        assert rows[2] == ("proving", 0.05, 0.1)

    def test_right_halving_keeps_inner_end(self):
        query = ThresholdQuery(0.1, 0.05, 0.1)
        rows = [row for row in _intervals("bincert", query) if row[0] == "refuting"]
        assert rows[1] == ("refuting", query.upper, 0.15 + 0.425)

    def test_zero_threshold_left_stub(self):
        for eta in (1e-3, 0.2, 0.999):
            rows = _intervals("bincert", ThresholdQuery(0.0, eta, 0.1))
            assert all(side != "proving" for side, _, _ in rows)
            assert rows[-1] == ("final", 0.0, eta)

    def test_step_never_shrinks_below_eta(self):
        queries = [ThresholdQuery(0.1, 1e-3, 0.01), ThresholdQuery(0.1, 0.05, 0.1),
                   ThresholdQuery(0.5, 0.15, 0.1), ThresholdQuery(0.9, 0.01, 0.1)]
        for query in queries:
            for side, pinned in (("proving", 2), ("refuting", 1)):
                rows = [row for row in _intervals("bincert", query) if row[0] == side]
                assert all(row[pinned] == rows[0][pinned] for row in rows)
                widths = [hi - lo for _, lo, hi in rows]
                for wide, narrow in zip(widths, widths[1:]):
                    assert narrow == pytest.approx(wide / 2.0, rel=1e-12)
                # a width of eta or less is never tested on a flank
                assert all(w > query.eta * (1.0 - 1e-12) for w in widths)

    def test_clamps_to_unit_interval(self):
        # bands touching 0 or 1, and flanks that do not halve evenly into eta
        for query in (ThresholdQuery(0.0, 0.25, 0.1), ThresholdQuery(0.5, 0.5, 0.1),
                      ThresholdQuery(0.9, 0.1, 0.1), ThresholdQuery(0.7, 0.2, 0.1)):
            rows = _intervals("bincert", query)
            assert all(0.0 <= lo < hi <= 1.0 for _, lo, hi in rows)
            assert rows[-1] == ("final", query.theta, query.upper)

    # The schedule reads theta and eta from a ThresholdQuery, which rejects
    # what create_interval used to.
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=-0.1, eta=0.1, delta=0.1),
            dict(theta=1.5, eta=0.1, delta=0.1),
            dict(theta=0.5, eta=0.0, delta=0.1),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(OutOfRangeError):
            _intervals("bincert", ThresholdQuery(**kwargs))

    @given(theta=st.floats(0.0, 1.0), eta=st.floats(1e-6, 1.0, exclude_max=True))
    def test_result_is_ordered_and_clamped(self, theta, eta):
        assume(theta + eta <= 1.0)
        for side, lo, hi in _intervals("bincert", ThresholdQuery(theta, eta, 0.1)):
            assert 0.0 <= lo < hi <= 1.0


class TestBinCertParams:
    """The halving call bound n, the flank budgets' floor 1/n^2, and the bincert note."""

    def test_reference_query(self):
        query = ThresholdQuery(0.1, 1e-3, 0.01)
        assert _halving_calls(query) == 19.45603349528917
        notes, _ = schedule("bincert", query)
        assert notes == (
            "halving call bound n = 19.45603349528917 (base-2 depth); each flank splits "
            "delta/2 by weights max(4^-j, 1/n^2), j calls before its last; "
            "delta_final = 0.004999999999999999",
        )

    def test_zero_threshold_drops_left_term(self):
        n = _halving_calls(ThresholdQuery(0.0, 0.01, 0.1))
        assert n == pytest.approx(3.0 + math.log2(0.99 / 0.01))

    def test_band_touching_one_drops_right_term(self):
        query = ThresholdQuery(0.5, 0.5, 0.1)
        assert _halving_calls(query) == 3.0
        # no flank call is left to share delta with the final call
        _, calls = schedule("bincert", query)
        assert [call.plan.delta_call for call in calls] == [0.1]

    def test_flanks_narrower_than_eta_contribute_nothing(self):
        n = _halving_calls(ThresholdQuery(0.05, 0.1, 0.1))
        # left term clips at zero: log2(0.05 / 0.1) < 0
        assert n == pytest.approx(3.0 + math.log2(0.85 / 0.1))


class TestHalvingSchedule:
    def test_zero_threshold_schedule(self):
        rows = _intervals("bincert", ThresholdQuery(0.0, 0.25, 0.1))
        assert rows == [
            ("refuting", 0.25, 1.0),
            ("refuting", 0.25, 0.625),
            ("final", 0.0, 0.25),
        ]

    def test_alternation_and_final(self):
        query = ThresholdQuery(0.5, 0.1, 0.01)
        rows = _intervals("bincert", query)
        assert rows[0] == ("proving", 0.0, 0.5)
        assert rows[1] == ("refuting", 0.6, 1.0)
        assert rows[-1] == ("final", 0.5, query.upper)
        assert len(rows) == 6
        for side, theta1, theta2 in rows[:-1]:
            if side == "proving":
                assert theta2 <= query.theta
            else:
                assert theta1 == query.upper

    def test_terminates_on_awkward_widths(self):
        # 0.1 - 0.001 recomputed from endpoints is one ulp above 0.001;
        # a schedule keyed on endpoint differences would never finish.
        query = ThresholdQuery(0.1, 1e-3, 0.01)
        rows = _intervals("bincert", query)
        assert rows[-1] == ("final", 0.1, query.upper)
        assert len(rows) == 18 <= math.ceil(_halving_calls(query))

    def test_schedule_length_never_exceeds_call_bound(self):
        for theta in (0.0, 0.01, 0.1, 0.5, 0.9):
            for eta in (0.005, 0.05, 0.3):
                if theta + eta > 1.0:
                    continue
                query = ThresholdQuery(theta, eta, 0.05)
                rows = _intervals("bincert", query)
                assert len(rows) <= math.ceil(_halving_calls(query))

    @given(
        theta=st.floats(0.0, 1.0),
        eta=st.floats(1e-6, 1.0, exclude_max=True),
        delta=st.floats(1e-6, 1.0),
    )
    def test_union_bound_covers_every_call(self, theta, eta, delta):
        # each flank splits delta/2 and the schedule holds at most n calls,
        # so the final call's share, about delta/2, is at least delta / n
        assume(theta + eta <= 1.0)
        query = ThresholdQuery(theta, eta, delta)
        n = _halving_calls(query)
        spent = _spent("bincert", query)
        assert len(spent) <= n
        assert_per_side(query, spent, parent_budgets("bincert", query, spent))


# eta near 1e-160 gives a flank about 530 calls deep, where 4^-j underflows
# and the 1/n^2 floor alone keeps the far budgets above zero.
@given(
    theta=st.floats(0.0, 1.0) | st.floats(0.0, 1e-140),
    eta=st.floats(1e-160, 1.0, exclude_max=True),
    delta=st.floats(1e-300, 1.0),
)
@example(theta=1e-150, eta=1e-160, delta=1e-300)
@example(theta=0.0, eta=1e-160, delta=1e-300)
@example(theta=0.5, eta=1e-15, delta=1e-300)
@example(theta=0.1, eta=1e-3, delta=1.0)
def test_rising_budgets_stay_positive_and_within_delta(theta, eta, delta):
    assume(theta + eta <= 1.0 and theta + eta != theta)
    query = ThresholdQuery(theta, eta, delta)
    # a stand-in planner reads each call's budget without sizing the call
    with mock.patch.object(strategy, "plan_tester", lambda *row: HandPlan(*row, 1, 0)):
        notes, calls = schedule("bincert", query)
        spent = [(call.side, call.plan.delta_call) for call in calls]
    assert "each flank splits delta/2" in notes[0]
    budgets = {side: [b for s, b in spent if s == side] for side in ("proving", "refuting", "final")}
    assert all(type(b) is float and b > 0.0 for flank in budgets.values() for b in flank)
    (final,) = budgets["final"]
    for side in ("proving", "refuting"):
        assert sum(map(Fraction, budgets[side]), Fraction(final)) <= Fraction(delta)


@given(
    delta=st.floats(1e-9, 1.0),
    share=st.floats(0.0, 1.0),
    proving=st.lists(st.floats(1e-300, 1.0), max_size=79),
    refuting=st.lists(st.floats(1e-300, 1.0), max_size=79),
)
@example(delta=1.0, share=1.0, proving=[], refuting=[])
@example(delta=0.1, share=1.0, proving=[1.0], refuting=[1.0])
@example(delta=0.1, share=0.5, proving=[1.0, 4.0, 16.0], refuting=[1.0] * 40)
def test_final_budget_is_the_largest_float_that_fits(delta, share, proving, refuting):
    # delta less the larger flank's exact sum, rounded down to a float; each
    # flank splits share * delta by its weights, summing a few ulps off it
    flanks = [[delta * share * w / math.fsum(weights) for w in weights]
              for weights in (proving, refuting)]
    spent = max(sum(map(Fraction, flank), Fraction(0)) for flank in flanks)
    assume(spent < Fraction(delta))
    final = _final_budget(delta, *flanks)
    assert 0.0 < final <= delta
    assert Fraction(final) + spent <= Fraction(delta)
    above = math.nextafter(final, math.inf)
    assert Fraction(above) + spent > Fraction(delta)


# Queries whose flanks are empty, narrow, or touch 0 or 1.
@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(
    theta=st.floats(0.0, 1.0),
    eta=st.floats(1e-6, 1.0, exclude_max=True),
    delta=st.floats(1e-6, 1.0),
)
@example(theta=0.0, eta=0.01, delta=1.0)
@example(theta=0.5, eta=0.5, delta=1.0)
@example(theta=0.5, eta=0.5, delta=0.1)
@example(theta=0.05, eta=0.1, delta=0.1)
@example(theta=0.1, eta=1e-3, delta=0.01)
@example(theta=0.3, eta=0.01, delta=0.01)
def test_union_bound_covers_the_whole_schedule(name, theta, eta, delta):
    # Every call a run could make is in the schedule, so each side's
    # budgets over the whole schedule, plus the final call's, must sum
    # within delta.
    assume(theta + eta <= 1.0)
    query = ThresholdQuery(theta, eta, delta)
    spent = _spent(name, query)
    assert_per_side(query, spent, parent_budgets(name, query, spent))


# No flank call leaves the final call all of delta = 1: it is planned on no
# trials, so every run says yes having drawn nothing.
@pytest.mark.parametrize("name", ["bincert", "fixedcert"])
def test_delta_one_without_flanks_says_yes_on_no_trials(name, seed):
    query = ThresholdQuery(0.0, 0.5, 1.0)
    report = run_strategy(name, query, BernoulliOracle(0.7), seed)
    assert _check_report(report) is report
    assert (report.verdict.kind, report.total_samples) == ("yes", 0)
    for p in (0.0, 0.5, 1.0):
        law = schedule_law(schedule(name, query)[1], p)
        assert (law.p_yes, law.samples) == (1.0, ((0, 1.0),))


@pytest.mark.parametrize("name", ["bincert", "fixedcert"])
@given(theta=st.floats(0.0, 1.0), eta=st.floats(1e-6, 1.0, exclude_max=True))
@example(theta=0.0, eta=0.25)  # no proving flank
@example(theta=0.5, eta=0.5)  # no flank at all
@example(theta=0.3, eta=0.01)  # the refuting flank is longer
@example(theta=0.9, eta=0.01)  # the proving flank is longer
def test_flanks_alternate_proving_first_then_one_final_call(name, theta, eta):
    # Sides alternate, proving first, while both flanks last; the rest of
    # the longer flank follows, and one final call on (theta, theta + eta)
    # ends the schedule.
    assume(theta + eta <= 1.0)
    query = ThresholdQuery(theta, eta, 0.1)
    rows = schedule_rows(name, query)
    sides = [side for side, _, _, _ in rows]
    left, right = sides.count("proving"), sides.count("refuting")
    both = ["proving", "refuting"] * min(left, right)
    rest = ["proving"] * (left - right) + ["refuting"] * (right - left)
    assert sides == both + rest + ["final"]
    assert rows[-1][1:3] == (query.theta, query.upper)


# The bench's queries: bern-tight, hardness-784, and the README's, which
# sim-sweep runs too.
@pytest.mark.parametrize("name", ["bincert", "fixedcert"])
@pytest.mark.parametrize("query", [ThresholdQuery(0.1, 2e-3, 0.01),
                                   ThresholdQuery(0.01, 0.01, 0.05),
                                   ThresholdQuery(0.1, 0.05, 0.1)])
def test_no_call_is_larger_than_under_the_all_call_bound(name, query):
    # Under a union bound over every call, bincert ran every call at
    # delta / n and fixedcert its flank calls at their budgets of today and
    # its final call at delta/3.  A run at an edge reaches every call and
    # pays for its largest, so no call may be larger than the largest call
    # under that bound.  fixedcert keeps each call no larger; bincert's far
    # calls grow, but its largest call shrinks.
    plans = [call.plan for call in schedule(name, query)[1]]
    floor = parent_budgets(name, query, _spent(name, query))["final"]
    old = [floor if name == "bincert" else plan.delta_call for plan in plans[:-1]] + [floor]
    sizes = [plan.n_samples for plan in plans]
    before = [plan_tester(plan.theta1, plan.theta2, budget).n_samples
              for plan, budget in zip(plans, old)]
    assert max(sizes) <= max(before)
    if name == "bincert":
        assert max(sizes) < max(before)
    else:
        assert all(n <= m for n, m in zip(sizes, before))
    # the final call is where the per-side rule saves samples
    assert sizes[-1] < before[-1]


class TestBinCert:
    def test_zero_rate_settles_on_first_proving_call(self, seed):
        query = ThresholdQuery(0.5, 0.1, 0.01)
        report = run_strategy("bincert", query, BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        call = report.calls[0]
        assert call.side == "proving"
        assert (call.plan.theta1, call.plan.theta2) == (0.0, 0.5)
        # the first of the proving flank's three calls gets 1/21 of delta/2
        assert call.plan.delta_call == pytest.approx(query.delta / 42, rel=1e-12)
        assert report.total_samples == plan_tester(0.0, 0.5, call.plan.delta_call).n_samples == 13

    def test_full_rate_settles_on_first_refuting_call(self, seed):
        report = run_strategy("bincert", ThresholdQuery(0.5, 0.1, 0.01), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert [c.side for c in report.calls] == ["proving", "refuting"]
        assert report.calls[-1].outcome == "no"

    def test_in_band_rate_runs_whole_schedule(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = run_strategy("bincert", query, BernoulliOracle(0.4), seed)
        assert len(report.calls) == len(_intervals("bincert", query))
        last = report.calls[-1]
        assert last.side == "final"
        assert report.verdict.kind == ("yes" if last.outcome == "yes" else "no")

    def test_delta_accounting(self, seed):
        # an in-band run makes every call of the schedule, the final one last
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = run_strategy("bincert", query, BernoulliOracle(0.4), seed)
        spent = [(c.side, c.plan.delta_call) for c in report.calls]
        assert len(spent) == len(_intervals("bincert", query))
        assert_per_side(query, spent, parent_budgets("bincert", query, spent))

    def test_calls_read_one_stream(self, seed, monkeypatch):
        # Every call reads a prefix of the stream; a call no longer than the
        # stream draws nothing, and one past its end draws only the trials
        # after it, so each trial is drawn once.
        import quantcert.strategy as strategy_module

        batch = 16
        oracle = CountingOracle(BernoulliOracle(0.125), batch_trials=batch)
        marks = []
        run = strategy_module.run_tester

        def marked(call, stream):
            marks.append((stream.length, len(oracle.windows)))
            return run(call, stream)

        monkeypatch.setattr(strategy_module, "run_tester", marked)
        report = run_strategy("bincert", ThresholdQuery(0.1, 0.05, 0.1), oracle, seed)
        assert [c.side for c in report.calls][-2:] == ["refuting", "final"]
        assert report.total_samples == max(c.plan.n_samples for c in report.calls)
        assert oracle.total_trials == report.total_samples
        starts = [start for start, _ in oracle.windows]
        assert starts == sorted(starts) and starts[0] == 0
        assert all(a + k == b for (a, k), b in zip(oracle.windows, starts[1:]))
        ends = [m[1] for m in marks[1:]] + [len(oracle.windows)]
        for call, (length, first), nxt in zip(report.calls, marks, ends):
            drawn = oracle.windows[first:nxt]
            assert all(start >= length for start, _ in drawn)
            assert sum(k for _, k in drawn) == max(0, call.plan.n_samples - length)
            assert all(k == batch for _, k in drawn[:-1])
        # 4 reads inside the proving call's 29 trials, and the final call's
        # 496 inside the 664 before it: two calls draw nothing
        assert [c.plan.n_samples for c in report.calls] == [29, 4, 51, 132, 314, 664, 496]
        assert [nxt - first for (_, first), nxt in zip(marks, ends)].count(0) == 2

    def test_zero_threshold_query(self, seed):
        report = run_strategy("bincert", ThresholdQuery(0.0, 0.25, 0.1), BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert [c.side for c in report.calls] == [
            "refuting",
            "refuting",
            "final",
        ]
        report = run_strategy("bincert", ThresholdQuery(0.0, 0.25, 0.1), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert len(report.calls) == 1

    def test_sample_budget_blocks_before_first_call(self, seed):
        report = run_strategy("bincert", 
            ThresholdQuery(0.5, 0.1, 0.01),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_samples=12),  # the first call takes 13
        )
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "budget-exhausted"
        assert report.calls == () and report.total_samples == 0

    def test_wall_clock_budget(self, seed):
        report = run_strategy("bincert", 
            ThresholdQuery(0.5, 0.1, 0.01),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_wall_ms=0.0),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "timeout"

    @pytest.mark.parametrize(
        "bad",
        [dict(max_samples=-5), dict(max_wall_ms=-1.0), dict(max_wall_ms=math.nan),
         dict(max_samples=math.nan), dict(max_samples=1.5), dict(max_samples=True),
         dict(max_wall_ms="5"), dict(max_wall_ms=True)],
    )
    def test_limits_reject_negative_and_nan(self, bad):
        with pytest.raises(OutOfRangeError):
            ResourceLimits(**bad)
        assert ResourceLimits(max_samples=0, max_wall_ms=0.0).max_samples == 0

    def test_notes_record_call_budget(self, seed):
        query = ThresholdQuery(0.1, 1e-3, 0.01)
        report = run_strategy("bincert", query, BernoulliOracle(0.0), seed)
        assert report.notes == schedule("bincert", query)[0]
        assert "each flank splits delta/2" in report.notes[0]
        assert "delta_final = 0.004999999999999999" in report.notes[0]


class _SlowOracle(CountingOracle):
    """A CountingOracle whose draws each take a millisecond, stamped as they start."""

    def __init__(self, inner, batch_trials):
        super().__init__(inner, batch_trials)
        self.starts = []

    def draw(self, seed, start, count):
        self.starts.append(time.perf_counter())
        time.sleep(1e-3)
        return super().draw(seed, start, count)


class TestLimits:
    QUERY = ThresholdQuery(0.1, 0.05, 0.1)

    @pytest.mark.parametrize("name", ["bincert", "estimate"])
    def test_no_draw_starts_past_the_deadline(self, seed, name):
        # In 8-trial draws an unlimited run at p = 0.12 needs 83 draws
        # (bincert, seven calls, 664 trials) or 1,382 (estimate, one call),
        # past 50 ms, so the deadline falls inside a call.
        full = run_strategy(name, self.QUERY, BernoulliOracle(0.12), seed)
        oracle = _SlowOracle(BernoulliOracle(0.12), batch_trials=8)
        limits = ResourceLimits(max_wall_ms=50.0)
        report = run_strategy(name, self.QUERY, oracle, seed, limits=limits)
        assert report.verdict == Verdict("inconclusive", "timeout")
        # The run starts its clock before its first draw, so its deadline
        # is at most 50 ms after that draw starts.
        assert oracle.starts[-1] < oracle.starts[0] + 0.050
        # Calls that finished are recorded as an unlimited run makes them;
        # the call that was cut is not, though the stream holds its trials.
        assert report.calls == full.calls[: len(report.calls)]
        assert len(report.calls) < len(full.calls)
        assert oracle.total_trials >= report.total_samples
        assert report.total_samples == oracle.total_trials
        if name == "estimate":
            assert report.calls == () and oracle.total_trials > 0

    @pytest.mark.parametrize("name", ["bincert", "fixedcert", "estimate"])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_run_ends_where_the_law_puts_its_mass(self, seed, name, p):
        # At p in {0, 1} every outcome is certain, so the law of a capped
        # run is a point mass, and the run must land on it.
        sizes = sorted({call.plan.n_samples for call in schedule(name, self.QUERY)[1]})
        for cap in [None, 0] + [n + d for n in sizes for d in (-1, 0)]:
            law = schedule_law(schedule(name, self.QUERY)[1], p, cap)
            report = run_strategy(name, self.QUERY, BernoulliOracle(p), seed,
                                  limits=ResourceLimits(max_samples=cap))
            ends = {"yes": law.p_yes, "no": law.p_no, "inconclusive": law.p_inconclusive}
            assert ends[report.verdict.kind] == 1.0
            assert law.samples == ((report.total_samples, 1.0),)
            inconclusive = report.verdict.kind == "inconclusive"
            assert (report.verdict.reason == "budget-exhausted") == inconclusive


class TestFixedCertParams:
    def _plans(self, query):
        return schedule("fixedcert", query)[0], _spent("fixedcert", query)

    def test_reference_layout(self):
        notes, plans = self._plans(ThresholdQuery(0.3, 0.01, 0.01))
        # 0.3 / sqrt(0.01) evaluates one ulp under 3; the layout must still
        # cut the left flank three times.
        assert notes == ("grid layout: 3 proving + 6 refuting intervals at pitch sqrt(eta) = 0.1",)
        by_side = {side: [d for s, d in plans if s == side] for side in ("proving", "refuting", "final")}
        assert by_side["proving"] == [pytest.approx(0.01 / 9.0)] * 3
        assert by_side["refuting"] == [pytest.approx(0.01 / 18.0)] * 6
        assert by_side["final"] == [pytest.approx(0.02 / 3.0)]

    def test_narrow_left_flank_gets_no_calls(self):
        notes, plans = self._plans(ThresholdQuery(0.04, 0.01, 0.01))
        assert notes[0].startswith("grid layout: 0 proving + 9 refuting")
        assert [side for side, _ in plans] == ["refuting"] * 9 + ["final"]

    def test_delta_accounting(self):
        # each non-empty flank splits delta/3 evenly; the final call gets
        # the 2 delta/3 they leave, or delta when both are empty
        for theta, eta in ((0.3, 0.01), (0.04, 0.01), (0.0, 0.04), (0.9, 0.05), (0.1, 0.85)):
            query = ThresholdQuery(theta, eta, 0.05)
            _, plans = self._plans(query)
            for side in ("proving", "refuting"):
                spent = [d for s, d in plans if s == side]
                assert len(set(spent)) <= 1
                assert math.fsum(spent) == pytest.approx(0.05 / 3.0 if spent else 0.0)
            (final,) = [d for s, d in plans if s == "final"]
            assert final == pytest.approx(0.05 * (2.0 / 3.0 if len(plans) > 1 else 1.0))
            assert_per_side(query, plans, parent_budgets("fixedcert", query, plans))


class TestFixedSchedule:
    def test_reference_schedule(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        rows = schedule_rows("fixedcert", query)
        assert len(rows) == 3 + 6 + 1
        side0, lo0, hi0, d0 = rows[0]
        assert (side0, lo0) == ("proving", 0.0)
        assert hi0 == pytest.approx(0.1) and d0 == 0.01 / 9.0
        side1, lo1, hi1, _ = rows[1]
        assert (side1, hi1) == ("refuting", 1.0)
        assert lo1 == pytest.approx(0.885)
        # alternate while both flanks last, refuting outermost first
        assert [r[0] for r in rows[:6]] == [
            "proving",
            "refuting",
            "proving",
            "refuting",
            "proving",
            "refuting",
        ]
        # 2 delta / 3, rounded down so that each side sums within delta
        assert rows[-1] == ("final", 0.3, query.upper, 0.006666666666666666)

    def test_grid_endpoints_are_exact(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        rows = schedule_rows("fixedcert", query)
        proving = [r for r in rows if r[0] == "proving"]
        refuting = [r for r in rows if r[0] == "refuting"]
        # the innermost proving interval ends exactly at theta, and the
        # innermost refuting interval starts exactly at theta + eta
        assert proving[-1][2] == query.theta
        assert refuting[-1][1] == query.upper
        assert proving[0][1] == 0.0
        assert refuting[0][2] == 1.0
        for _, lo, hi, _ in proving:
            assert hi <= query.theta
        for _, lo, hi, _ in refuting:
            assert lo >= query.upper

    def test_empty_left_flank(self):
        query = ThresholdQuery(0.04, 0.01, 0.01)
        rows = schedule_rows("fixedcert", query)
        assert len(rows) == 0 + 9 + 1
        assert all(r[0] != "proving" for r in rows)
        assert rows[0][0] == "refuting"
        assert rows[-1][0] == "final"


class TestFixedCert:
    def test_zero_rate_reference_cost(self, seed):
        report = run_strategy("fixedcert", ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        assert report.total_samples == 65

    def test_full_rate(self, seed):
        report = run_strategy("fixedcert", ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert [c.side for c in report.calls] == ["proving", "refuting"]

    def test_in_band_rate_reaches_final_call(self, seed):
        query = ThresholdQuery(0.3, 0.04, 0.05)
        report = run_strategy("fixedcert", query, BernoulliOracle(0.32), seed)
        last = report.calls[-1]
        assert last.side == "final"
        assert (last.plan.theta1, last.plan.theta2) == (query.theta, query.upper)
        assert report.verdict.kind == ("yes" if last.outcome == "yes" else "no")

    def test_report_delta_accounting(self, seed):
        query = ThresholdQuery(0.3, 0.04, 0.05)
        report = run_strategy("fixedcert", query, BernoulliOracle(0.32), seed)
        spent = [(c.side, c.plan.delta_call) for c in report.calls]
        assert spent == _spent("fixedcert", query)
        assert_per_side(query, spent, parent_budgets("fixedcert", query, spent))

    def test_sample_budget(self, seed):
        report = run_strategy("fixedcert", 
            ThresholdQuery(0.3, 0.01, 0.01),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_samples=50),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "budget-exhausted"


class TestBaseline:
    def test_reference_sizes(self):
        assert baseline_samples(ThresholdQuery(0.1, 1e-3, 0.01)) == 55_262_043
        assert baseline_samples(ThresholdQuery(0.1, 0.1, 0.5)) == 832
        assert baseline_samples(ThresholdQuery(0.1, 0.1, 1e-4)) == 11_053

    def test_smallest_integer_above_bound(self):
        for eta in (0.001, 0.01, 0.07, 0.3):
            for delta in (1e-6, 0.01, 0.5, 0.99):
                n = baseline_samples(ThresholdQuery(0.0, eta, delta))
                bound = 12.0 * math.log(1.0 / delta) / eta**2
                assert n > bound >= n - 1

    def test_estimate_run_shape(self, seed):
        query = ThresholdQuery(0.1, 0.1, 0.5)
        report = run_strategy("estimate", query, BernoulliOracle(0.0), seed)
        assert report.strategy == "estimate"
        assert report.verdict.kind == "yes"
        assert report.total_samples == 832
        (call,) = report.calls
        assert call.side == "final"
        assert call.plan.c == 124  # the largest count with rate at most 0.15
        assert call.plan.delta_call == query.delta

    def test_estimate_rejects_high_rate(self, seed):
        report = run_strategy("estimate", 
            ThresholdQuery(0.1, 0.1, 0.5), BernoulliOracle(0.5), seed
        )
        assert report.verdict.kind == "no"

    def test_estimate_respects_budget(self, seed):
        report = run_strategy("estimate", 
            ThresholdQuery(0.1, 0.1, 0.5),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_samples=100),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.calls == ()


class TestWorstCaseBudget:
    # A run costs its largest call, so every term bounds one call.
    def test_reference_budget(self):
        bound = worst_case_budget(ThresholdQuery(0.1, 1e-3, 0.01))
        assert bound.exact_schedule_total == 2_399_834  # the final call
        assert (bound.k1, bound.k2, bound.k3) == (1_831_398, 1_491_794, 4_281_041)
        assert bound.analytic_total == max(bound.k1, bound.k2, bound.k3) == bound.k3

    def test_flank_terms_vanish_when_too_narrow(self):
        assert worst_case_budget(ThresholdQuery(0.01, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.005, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.9, 0.099, 0.1)).k2 == 0.0

    def test_zero_threshold_budget(self):
        # theta = 0 leaves no left flank, and a right flank of width eta
        # gets no call either, so the final call runs at delta
        bound = worst_case_budget(ThresholdQuery(0.0, 0.5, 0.01))
        assert bound.k1 == bound.k2 == 0.0
        assert bound.k3 == 74  # ceil(8 * 0.5 * ln(1 / 0.01) / 0.5^2)
        assert bound.exact_schedule_total == 7  # 0.5^7 <= 0.01 < 0.5^6
        # at delta = 1 that call is planned at delta_call = 1, on no trials
        bound = worst_case_budget(ThresholdQuery(0.0, 0.5, 1.0))
        assert (bound.k3, bound.exact_schedule_total) == (0, 0)

    # Sizing a call of 10^9 trials exactly takes about half a second.
    @settings(deadline=None)
    @given(theta=st.floats(0.0, 0.99), eta=st.floats(1e-4, 0.5), delta=st.floats(1e-6, 1.0))
    @example(theta=0.1, eta=1e-3, delta=0.01)
    @example(theta=0.0, eta=0.5, delta=0.01)
    def test_terms_bound_each_flank_and_the_final_call(self, theta, eta, delta):
        assume(theta + eta <= 1.0)
        query = ThresholdQuery(theta, eta, delta)
        bound = worst_case_budget(query)
        term = {"proving": bound.k1, "refuting": bound.k2, "final": bound.k3}
        plans = [(call.side, call.plan) for call in schedule("bincert", query)[1]]
        sizes = [(side, plan.n_samples) for side, plan in plans]
        for side, plan in plans:
            # every call's planned size, and its own closed form, fit its side's term
            width = plan.theta2 - plan.theta1
            closed = _closed_form(plan.theta2, width, plan.delta_call)
            assert plan.n_samples <= closed <= term[side], (side, plan, term[side])
        # each term is the largest closed form over its side's calls
        for side in ("proving", "refuting", "final"):
            assert term[side] == max(
                [_closed_form(p.theta2, p.theta2 - p.theta1, p.delta_call)
                 for s, p in plans if s == side] + [0])
        assert bound.exact_schedule_total == max(n for _, n in sizes)
        assert bound.exact_schedule_total <= bound.analytic_total
        for side in ("proving", "refuting"):
            assert (term[side] == 0.0) == all(s != side for s, _ in sizes)

    def test_overflowing_bound_is_out_of_range(self):
        # eta squared is still nonzero, but 1 / eta^2 overflows
        query = ThresholdQuery(0.0, 1e-160, 0.1)
        with pytest.raises(OutOfRangeError, match="not finite"):
            baseline_samples(query)
        # bincert's terms divide each call's theta2 by its own width squared,
        # and a call's theta2 shrinks with its width, so they stay finite
        bound = worst_case_budget(query)
        assert bound.k1 == 0
        assert bound.exact_schedule_total <= bound.analytic_total == bound.k2 < 1e162
        # plan_tester converts its bound with the same helper
        for bound in (math.inf, math.nan):
            with pytest.raises(OutOfRangeError, match="not finite"):
                _sample_count(bound)
        assert _sample_count(2.0) == 2 and _sample_count(2.5) == 3

    def test_exact_total_dominates_observed_runs(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        cap = worst_case_budget(query).exact_schedule_total
        for p in (0.0, 0.25, 0.5, 1.0):
            report = run_strategy("bincert", query, BernoulliOracle(p), seed)
            assert report.total_samples <= cap


class TestReportSerialization:
    def test_canonical_json_ignores_performance_knobs(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        oracles = [BernoulliOracle(0.4)] + [
            CountingOracle(BernoulliOracle(0.4), batch_trials=b) for b in (16, 128, 4096)
        ]
        blobs = {
            run_strategy("bincert", query, oracle, seed, config={"tag": "keep"}).canonical_json()
            for oracle in oracles
        }
        assert len(blobs) == 1
        blob = blobs.pop()
        assert '"wall_time_ms"' not in blob
        assert '"tag":"keep"' in blob

    def test_canonical_json_keeps_config_verbatim(self, seed):
        config = {"batch_size": 64, "wall_time_ms": 1.5, "tag": "keep"}
        report = run_strategy("bincert", ThresholdQuery(0.3, 0.2, 0.1), BernoulliOracle(0.4), seed, config=config)
        assert json.loads(report.canonical_json())["config"] == config

    def test_replay_is_byte_identical(self):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        a = run_strategy("bincert", query, BernoulliOracle(0.4), SeedSpec(99))
        b = run_strategy("bincert", query, BernoulliOracle(0.4), SeedSpec(99))
        assert a.canonical_json() == b.canonical_json()

    def test_full_json_keeps_timing(self, seed):
        report = run_strategy("bincert", ThresholdQuery(0.5, 0.1, 0.01), BernoulliOracle(0.0), seed)
        assert '"wall_time_ms"' in report.to_json()
        doc = report.to_dict(include_timing=True)
        assert doc["wall_time_ms"] == report.wall_time_ms
        assert doc["verdict"] == "yes"
        assert doc["inconclusive_reason"] is None
        assert doc["calls"][0]["n"] == report.calls[0].plan.n_samples


class TestRunStrategy:
    def test_dispatch(self, seed):
        report = run_strategy(
            "fixedcert", ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(0.0), seed
        )
        assert report.strategy == "fixedcert"

    def test_unknown_name(self, seed):
        with pytest.raises(OutOfRangeError, match="strategy must be "):
            run_strategy("magic", ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(0.0), seed)

    @pytest.mark.parametrize("name", ["bincert", "fixedcert", "estimate"])
    def test_tester_is_reached_through_strategy_module(self, name, seed, monkeypatch):
        # Tracers wrap plan_tester and run_tester where strategy.py looks
        # them up; a strategy that bypassed those names would go untimed.
        import quantcert.strategy as strategy_module

        seen = []
        for attr in ("plan_tester", "run_tester"):
            def spy(*args, _attr=attr, _fn=getattr(strategy_module, attr), **kwargs):
                seen.append(_attr)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(strategy_module, attr, spy)
        report = run_strategy(name, ThresholdQuery(0.1, 0.05, 0.1), BernoulliOracle(0.5), seed)
        assert seen.count("run_tester") == len(report.calls) >= 1
        # the baseline's single plan is built by hand, not by plan_tester
        planned = 0 if name == "estimate" else len(report.calls)
        assert seen.count("plan_tester") == planned


# (n, c) of each side's call in the report invariant tests, built by hand:
# the invariants read a plan's interval, n and c, not how it was sized.
HAND_CALLS = {"proving": (19, 0), "refuting": (219, 174), "final": (2480, 1370)}


def _record(side, theta1, theta2, delta, successes=0):
    call = _entry(side, HandPlan(theta1, theta2, delta, *HAND_CALLS[side]))
    return CallRecord(call.plan, call.a, call.b, successes)


def _report(query, calls, verdict, total=None):
    """A report of these calls; its total is the largest call unless given."""
    if total is None:
        total = max((rec.plan.n_samples for rec in calls), default=0)
    return CertificationReport(
        query=query,
        strategy="bincert",
        verdict=verdict,
        seed=SeedSpec(1),
        calls=tuple(calls),
        total_samples=total,
        wall_time_ms=0.0,
    )


class TestReportInvariants:
    QUERY = ThresholdQuery(0.5, 0.1, 0.01)
    # Each side's interval for QUERY; calls on them are planned at delta_call 0.01.
    INTERVALS = {"proving": (0.0, 0.5), "refuting": (0.6, 1.0), "final": (0.5, 0.6)}

    def test_intervals_are_as_pinned(self):
        plans = {side: plan_tester(*interval, 0.01) for side, interval in self.INTERVALS.items()}
        assert {side: (p.n_samples, p.c) for side, p in plans.items()} == {
            "proving": (7, 0), "refuting": (10, 9), "final": (548, 301)}

    def test_entry_bounds_by_side(self):
        # proving (c, n), refuting (-1, c), final (c, c); each reads back as its side
        plans = {side: plan_tester(*interval, 0.01) for side, interval in self.INTERVALS.items()}
        calls = {side: _entry(side, plan) for side, plan in plans.items()}
        bounds = {side: (call.a, call.b) for side, call in calls.items()}
        assert bounds == {"proving": (0, 7), "refuting": (-1, 9), "final": (301, 301)}
        assert all(call.side == side for side, call in calls.items())

    def test_accepts_consistent_report(self):
        rec = _record("proving", 0.0, 0.5, 0.01)
        assert _check_report(_report(self.QUERY, [rec], Verdict("yes"))) is not None

    def test_record_derives_tally_outcome_and_total(self):
        rec = _record("refuting", 0.6, 1.0, 0.01, successes=175)
        assert rec.tally == SampleTally(219, 175) and rec.outcome == "no"
        assert replace(rec, successes=174).outcome == "yes"
        first = _record("proving", 0.0, 0.5, 0.01)
        assert _report(self.QUERY, [first, rec], Verdict("no")).total_samples == 219
        assert _report(self.QUERY, [], Verdict("inconclusive", "timeout")).total_samples == 0

    @pytest.mark.parametrize(
        "total, verdict, holds",
        [(219, Verdict("no"), True),
         (218, Verdict("no"), False),  # shorter than a call
         (220, Verdict("no"), False),  # longer than the largest call
         (220, Verdict("inconclusive", "budget-exhausted"), False),
         (220, Verdict("inconclusive", "timeout"), True),  # a cut call drew 1 trial
         (218, Verdict("inconclusive", "timeout"), False)],
    )
    def test_total_is_the_stream_length(self, total, verdict, holds):
        # 175 of 219 settles the refuting call no; 174 reads on, as the last
        # call of an inconclusive run must.
        first = _record("proving", 0.0, 0.5, 0.01, successes=1)
        last = _record("refuting", 0.6, 1.0, 0.01,
                       successes=175 if verdict.kind == "no" else 174)
        report = _report(self.QUERY, [first, last], verdict, total)
        if holds:
            assert _check_report(report) is report
        else:
            with pytest.raises(ReportInvariantError, match="total_samples"):
                _check_report(report)

    def test_proving_interval_must_stay_below_theta(self):
        rec = _record("proving", 0.0, 0.6, 0.01)
        with pytest.raises(ReportInvariantError, match="proving"):
            _check_report(_report(self.QUERY, [rec], Verdict("yes")))

    def test_refuting_interval_must_stay_above_band(self):
        rec = _record("refuting", 0.55, 1.0, 0.01, successes=100)
        with pytest.raises(ReportInvariantError, match="refuting"):
            _check_report(_report(self.QUERY, [rec], Verdict("no")))

    def test_final_call_must_test_the_band(self):
        rec = _record("final", 0.5, 0.7, 0.01)
        with pytest.raises(ReportInvariantError, match="final"):
            _check_report(_report(self.QUERY, [rec], Verdict("yes")))

    def test_yes_needs_supporting_last_call(self):
        rec = _record("refuting", 0.6, 1.0, 0.01)
        with pytest.raises(ReportInvariantError, match="yes verdict"):
            _check_report(_report(self.QUERY, [rec], Verdict("yes")))

    def test_no_needs_supporting_last_call(self):
        rec = _record("proving", 0.0, 0.5, 0.01, successes=19)
        with pytest.raises(ReportInvariantError, match="no verdict"):
            _check_report(_report(self.QUERY, [rec], Verdict("no")))

    # A proving call settles on yes, a refuting call on no and a final call
    # on either, written out here without the code it checks.
    @pytest.mark.parametrize(
        "side, successes, supports",
        [("proving", 0, "yes"), ("proving", 1, None), ("proving", 19, None),
         ("refuting", 0, None), ("refuting", 174, None), ("refuting", 175, "no"),
         ("final", 1370, "yes"), ("final", 1371, "no")],
    )
    def test_verdict_needs_a_last_call_that_settles(self, side, successes, supports):
        rec = _record(side, *self.INTERVALS[side], 0.01, successes=successes)
        for kind in ("yes", "no"):
            report = _report(self.QUERY, [rec], Verdict(kind))
            if kind == supports:
                assert _check_report(report) is report
            else:
                with pytest.raises(ReportInvariantError, match=f"{kind} verdict"):
                    _check_report(report)
        # A limit stops a run only between calls that read on.
        blocked = _report(self.QUERY, [rec], Verdict("inconclusive", "budget-exhausted"))
        if supports is None:
            assert _check_report(blocked) is blocked
        else:
            with pytest.raises(ReportInvariantError, match="inconclusive verdict"):
                _check_report(blocked)

    def test_no_call_settles_before_the_last(self):
        # A proving call with 0 of 19 successes settles yes, so no run reads
        # on past it: not to a refuting no, nor to the cap.
        proving = _record("proving", 0.0, 0.5, 0.01, successes=0)
        refuting = _record("refuting", 0.6, 1.0, 0.01, successes=175)
        with pytest.raises(ReportInvariantError, match="call 0 settles yes before the last"):
            _check_report(_report(self.QUERY, [proving, refuting], Verdict("no")))
        with pytest.raises(ReportInvariantError, match="inconclusive verdict"):
            _check_report(
                _report(self.QUERY, [proving], Verdict("inconclusive", "budget-exhausted"))
            )
        # The same calls with the proving call reading on are a run's report.
        reads_on = replace(proving, successes=1)
        report = _report(self.QUERY, [reads_on, refuting], Verdict("no"))
        assert _check_report(report) is report

    def test_each_side_sums_its_budgets_with_the_final_call(self):
        # Half of delta on every call: each side's flank call plus the final
        # one spends delta, though the three calls spend 1.5 delta.
        budgets = {"proving": 0.005, "refuting": 0.005, "final": 0.005}
        reads_on = {"proving": 1, "refuting": 174, "final": 1000}  # the final call says yes

        def run(budgets):
            calls = [_record(side, *self.INTERVALS[side], budgets[side], reads_on[side])
                     for side in ("proving", "refuting", "final")]
            return _report(self.QUERY, calls, Verdict("yes"))

        report = run(budgets)
        assert _check_report(report) is report
        for side in ("proving", "refuting"):
            over = {**budgets, side: math.nextafter(0.005, 1.0)}
            with pytest.raises(ReportInvariantError, match=f"{side} and final budgets sum to"):
                _check_report(run(over))
        with pytest.raises(ReportInvariantError, match="proving and final budgets"):
            _check_report(run({**budgets, "final": 0.006}))

    def test_verdict_needs_a_call(self):
        with pytest.raises(ReportInvariantError, match="yes verdict"):
            _check_report(_report(self.QUERY, [], Verdict("yes")))

    @pytest.mark.parametrize(
        "short, long",
        [(5, 4),  # a longer prefix with fewer successes
         (1, 219),  # more new successes than the trials added
         ],
    )
    def test_prefix_tallies_must_agree(self, short, long):
        first = _record("proving", 0.0, 0.5, 0.01, successes=short)
        last = _record("refuting", 0.6, 1.0, 0.01, successes=long)
        assert (first.plan.n_samples, last.plan.n_samples) == (19, 219)
        with pytest.raises(ReportInvariantError, match="prefix tallies"):
            _check_report(_report(self.QUERY, [first, last], Verdict("no")))
        # the same calls with tallies one stream can give pass: 175 of 219
        # is a refuting no
        honest = replace(last, successes=175)
        assert _check_report(_report(self.QUERY, [first, honest], Verdict("no"))) is not None

    @pytest.mark.parametrize("successes", [-1, 20])
    def test_successes_must_fit_the_call(self, successes):
        rec = _record("proving", 0.0, 0.5, 0.01, successes=successes)
        with pytest.raises(ReportInvariantError, match="prefix tallies"):
            _check_report(_report(self.QUERY, [rec], Verdict("no")))

    def test_equal_prefixes_have_equal_tallies(self):
        first = _record("refuting", 0.6, 1.0, 0.01, successes=3)
        again = _record("refuting", 0.6, 1.0, 0.01, successes=4)
        with pytest.raises(ReportInvariantError, match="prefix tallies"):
            _check_report(_report(self.QUERY, [first, again], Verdict("no")))


CALL_RULE = r"a call needs 0 <= n and -1 <= a <= b <= n"


def _hand_plan(n, c):
    # only n_samples and c decide a call; the interval is irrelevant here
    return HandPlan(theta1=0.0, theta2=1.0, delta_call=0.1, n_samples=n, c=c)


# Hand-built schedules with n <= 16, small enough to enumerate every
# outcome sequence of the shared stream.  Sizes are not monotone, as on
# bincert's interleaved flanks, so a later call can read a shorter prefix;
# caps of 9 and 14 cut the first two schedules partway.  The first ends in
# a final call that cannot settle on either flank.
HAND_SCHEDULES = [
    [_entry("proving", _hand_plan(4, 1)), _entry("refuting", _hand_plan(9, 5)),
     _entry("proving", _hand_plan(3, 1)), _entry("refuting", _hand_plan(6, 3)),
     _entry("final", _hand_plan(12, 6))],
    [_entry("refuting", _hand_plan(16, 4)), _entry("proving", _hand_plan(5, 1)),
     _entry("final", _hand_plan(7, 0))],
    [_entry("final", _hand_plan(11, 4))],
    # An interim call that settles at both ends and reads on between them:
    # a law that broke after it, judging by the two ends of S(6), would
    # never reach the final call.
    [Call(_hand_plan(6, 3), 0, 4), _entry("final", _hand_plan(10, 5))],
]


def _enumerated_law(entries, p, max_samples):
    """Every 0/1 sequence of the stream's first T trials, weighted and walked."""
    length = max(call.plan.n_samples for call in entries)
    trials = (np.arange(2 ** length)[:, None] >> np.arange(length)) & 1
    prefix = np.concatenate([np.zeros((2 ** length, 1), int), np.cumsum(trials, axis=1)], axis=1)
    hits = trials.sum(axis=1)
    weight = p ** hits * (1.0 - p) ** (length - hits)
    verdict = np.full(2 ** length, "open", dtype="<U12")
    total = np.zeros(2 ** length, int)
    for call in entries:
        n = call.plan.n_samples
        live = verdict == "open"
        if max_samples is not None:
            verdict[live & (np.maximum(total, n) > max_samples)] = "inconclusive"
            live = verdict == "open"
        total[live] = np.maximum(total[live], n)
        says = np.where(prefix[:, n] <= call.a, "yes",
                        np.where(prefix[:, n] > call.b, "no", "open"))
        verdict[live] = says[live]
    verdict[verdict == "open"] = "inconclusive"
    ends = {v: math.fsum(weight[verdict == v]) for v in ("yes", "no", "inconclusive")}
    samples = {int(t): math.fsum(weight[total == t]) for t in np.unique(total)}
    return ends, {t: w for t, w in samples.items() if w > 0.0}


def _assert_law_is_enumerated(entries, p, max_samples):
    """schedule_law within 1e-12 of the enumeration; returns both laws of the run total."""
    ends, samples = _enumerated_law(entries, p, max_samples)
    law = schedule_law(entries, p, max_samples)
    assert law.p_yes == pytest.approx(ends["yes"], abs=1e-12)
    assert law.p_no == pytest.approx(ends["no"], abs=1e-12)
    assert law.p_inconclusive == pytest.approx(ends["inconclusive"], abs=1e-12)
    computed = dict(law.samples)
    totals = sorted(set(computed) | set(samples))
    assert [computed.get(t, 0.0) for t in totals] == pytest.approx(
        [samples.get(t, 0.0) for t in totals], abs=1e-12)
    return computed, samples


@st.composite
def _small_schedules(draw):
    """1 to 4 entries of at most 10 trials each, with any bounds -1 <= a <= b <= n."""
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 10))
        b = draw(st.integers(-1, n))
        entries.append(Call(_hand_plan(n, n // 2), draw(st.integers(-1, b)), b))
    return entries


class TestScheduleLaw:
    @pytest.mark.parametrize("entries", HAND_SCHEDULES)
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("max_samples", [None, 0, 9, 14])
    def test_matches_enumeration(self, entries, p, max_samples):
        computed, samples = _assert_law_is_enumerated(entries, p, max_samples)
        assert list(computed) == sorted(samples)

    @settings(max_examples=40, deadline=None)
    @given(entries=_small_schedules(), p=st.floats(0.0, 1.0),
           max_samples=st.none() | st.integers(0, 10))
    def test_random_schedules_match_enumeration(self, entries, p, max_samples):
        # A total of mass at most 1e-30, as at p = 5e-324, may be dropped.
        _assert_law_is_enumerated(entries, p, max_samples)

    @pytest.mark.parametrize("name", ["bincert", "fixedcert", "estimate"])
    @pytest.mark.parametrize("query", [ThresholdQuery(0.1, 0.05, 0.1),
                                       ThresholdQuery(0.3, 0.2, 0.1),
                                       ThresholdQuery(0.0, 0.1, 0.1)])
    def test_no_rises_with_the_rate(self, name, query):
        # More successes can only turn a call's yes into no, so P(no) is
        # nondecreasing in p and each band edge is its side's worst case.
        p_no = [schedule_law(schedule(name, query)[1], p).p_no
                for p in [k / 200 for k in range(201)]]
        assert all(b >= a - 1e-12 for a, b in zip(p_no, p_no[1:]))

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["bincert", "fixedcert"]),
           theta=st.just(0.0) | st.floats(0.0, 0.01) | st.floats(0.0, 0.95),
           eta=st.floats(0.01, 0.5), delta=st.floats(1e-6, 0.5))
    @example(name="bincert", theta=0.003, eta=0.35, delta=0.005)
    @example(name="fixedcert", theta=0.003, eta=0.35, delta=0.005)
    def test_random_queries_err_at_most_delta(self, name, theta, eta, delta):
        # P(no) rises with the rate, so the band edges are the worst cases
        assume(theta + eta <= 1.0)
        query = ThresholdQuery(theta, eta, delta)
        at_theta = schedule_law(schedule(name, query)[1], query.theta)
        at_upper = schedule_law(schedule(name, query)[1], query.upper)
        assert at_theta.p_no + at_theta.p_inconclusive <= delta
        assert at_upper.p_yes + at_upper.p_inconclusive <= delta

    @pytest.mark.parametrize("a, b, n", [(3, 2, 5), (-2, 2, 5), (0, 6, 5)],
                             ids=["a-above-b", "a-below-minus-one", "b-above-n"])
    def test_entries_are_checked(self, a, b, n):
        # A call is checked where it is built, so one that means nothing
        # never reaches a run or the law.
        with pytest.raises(OutOfRangeError, match=CALL_RULE):
            Call(_hand_plan(n, 2), a, b)

    @given(n=st.integers(-2, 6), a=st.integers(-3, 8), b=st.integers(-3, 8))
    def test_a_call_is_built_exactly_when_its_bounds_fit(self, n, a, b):
        if 0 <= n and -1 <= a <= b <= n:
            call = Call(_hand_plan(n, 0), a, b)
            assert (call.a, call.b) == (a, b)
            assert CallRecord(call.plan, a, b, 0).side == call.side
        else:
            with pytest.raises(OutOfRangeError, match=CALL_RULE):
                Call(_hand_plan(n, 0), a, b)

    @pytest.mark.parametrize("cap", [-5, True, 1.5, math.nan, "10"])
    def test_cap_is_checked_before_a_call_is_read(self, cap):
        # The rule ResourceLimits and complexity_sweep apply to max_samples.
        def unread():
            raise AssertionError("read a call before checking the cap")
            yield

        with pytest.raises(OutOfRangeError, match="max_samples must be an integer"):
            schedule_law(unread(), 0.5, cap)

    def test_settled_run_plans_nothing_further(self, monkeypatch):
        import quantcert.strategy as strategy_module

        planned = []
        plan = strategy_module.plan_tester
        monkeypatch.setattr(strategy_module, "plan_tester",
                            lambda *a: planned.append(a) or plan(*a))
        law = schedule_law(schedule("bincert", ThresholdQuery(0.1, 0.05, 0.1))[1], 0.0)
        assert law.p_yes == 1.0 and len(planned) == 1

    def test_unknown_strategy(self):
        with pytest.raises(OutOfRangeError, match="strategy must be "):
            schedule("magic", ThresholdQuery(0.3, 0.01, 0.01))
        # The query is checked as every entry point checks it: a triple is one.
        with pytest.raises(OutOfRangeError, match="a query is a triple"):
            schedule("bincert", (0.1, 0.05))
        query = ThresholdQuery(0.1, 0.05, 0.1)
        assert schedule("bincert", (0.1, 0.05, 0.1))[0] == schedule("bincert", query)[0]
