import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from quantcert import (
    BernoulliOracle,
    CallRecord,
    CertificationReport,
    OutOfRangeError,
    ReportInvariantError,
    ResourceLimits,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
    run_strategy,
)
from quantcert.strategy import (
    STRATEGIES,
    baseline_samples,
    schedule,
    schedule_law,
    worst_case_budget,
)
from quantcert.tester import TesterPlan as HandPlan
from quantcert.tester import _sample_count, plan_tester
from quantcert.strategy import _check_report, _fixed_schedule, _halving_calls, _halving_schedule
from conftest import CountingOracle


class TestCreateInterval:
    """The endpoint arithmetic of bincert's halving steps, on schedule rows."""

    def test_first_left_interval(self):
        rows = list(_halving_schedule(ThresholdQuery(0.1, 1e-3, 0.01)))
        assert rows[0] == ("proving", 0.0, 0.1)

    def test_first_right_interval(self):
        rows = list(_halving_schedule(ThresholdQuery(0.1, 0.05, 0.1)))
        _, lo, hi = rows[1]
        assert rows[1][0] == "refuting" and lo == 0.1 + 0.05 and hi == 1.0

    def test_left_halving_keeps_inner_end(self):
        rows = list(_halving_schedule(ThresholdQuery(0.1, 1e-3, 0.01)))
        assert rows[2] == ("proving", 0.05, 0.1)

    def test_right_halving_keeps_inner_end(self):
        query = ThresholdQuery(0.1, 0.05, 0.1)
        rows = [row for row in _halving_schedule(query) if row[0] == "refuting"]
        assert rows[1] == ("refuting", query.upper, 0.15 + 0.425)

    def test_zero_threshold_left_stub(self):
        for eta in (1e-3, 0.2, 0.999):
            rows = list(_halving_schedule(ThresholdQuery(0.0, eta, 0.1)))
            assert all(side != "proving" for side, _, _ in rows)
            assert rows[-1] == ("final", 0.0, eta)

    def test_step_never_shrinks_below_eta(self):
        queries = [ThresholdQuery(0.1, 1e-3, 0.01), ThresholdQuery(0.1, 0.05, 0.1),
                   ThresholdQuery(0.5, 0.15, 0.1), ThresholdQuery(0.9, 0.01, 0.1)]
        for query in queries:
            for side, pinned in (("proving", 2), ("refuting", 1)):
                rows = [row for row in _halving_schedule(query) if row[0] == side]
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
            rows = list(_halving_schedule(query))
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
            list(_halving_schedule(ThresholdQuery(**kwargs)))

    @given(theta=st.floats(0.0, 1.0), eta=st.floats(1e-6, 1.0, exclude_max=True))
    def test_result_is_ordered_and_clamped(self, theta, eta):
        assume(theta + eta <= 1.0)
        for side, lo, hi in _halving_schedule(ThresholdQuery(theta, eta, 0.1)):
            assert 0.0 <= lo < hi <= 1.0


class TestBinCertParams:
    """The halving call bound n, each call's delta / n, and the bincert note."""

    def test_reference_query(self):
        query = ThresholdQuery(0.1, 1e-3, 0.01)
        assert _halving_calls(query) == 19.45603349528917
        notes, _ = schedule("bincert", query)
        assert notes == (
            "halving call budget n = 19.45603349528917 (base-2 depth), "
            "delta_min = 0.0005139793782952352",
        )

    def test_zero_threshold_drops_left_term(self):
        n = _halving_calls(ThresholdQuery(0.0, 0.01, 0.1))
        assert n == pytest.approx(3.0 + math.log2(0.99 / 0.01))

    def test_band_touching_one_drops_right_term(self):
        query = ThresholdQuery(0.5, 0.5, 0.1)
        assert _halving_calls(query) == 3.0
        _, entries = schedule("bincert", query)
        assert all(plan.delta_call == pytest.approx(0.1 / 3.0) for _, plan in entries)

    def test_flanks_narrower_than_eta_contribute_nothing(self):
        n = _halving_calls(ThresholdQuery(0.05, 0.1, 0.1))
        # left term clips at zero: log2(0.05 / 0.1) < 0
        assert n == pytest.approx(3.0 + math.log2(0.85 / 0.1))


class TestHalvingSchedule:
    def test_zero_threshold_schedule(self):
        rows = list(_halving_schedule(ThresholdQuery(0.0, 0.25, 0.1)))
        assert rows == [
            ("refuting", 0.25, 1.0),
            ("refuting", 0.25, 0.625),
            ("final", 0.0, 0.25),
        ]

    def test_alternation_and_final(self):
        query = ThresholdQuery(0.5, 0.1, 0.01)
        rows = list(_halving_schedule(query))
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
        rows = list(_halving_schedule(query))
        assert rows[-1] == ("final", 0.1, query.upper)
        assert len(rows) == 18 <= math.ceil(_halving_calls(query))

    def test_schedule_length_never_exceeds_call_bound(self):
        for theta in (0.0, 0.01, 0.1, 0.5, 0.9):
            for eta in (0.005, 0.05, 0.3):
                if theta + eta > 1.0:
                    continue
                query = ThresholdQuery(theta, eta, 0.05)
                rows = list(_halving_schedule(query))
                assert len(rows) <= math.ceil(_halving_calls(query))

    @given(
        theta=st.floats(0.0, 1.0),
        eta=st.floats(1e-6, 1.0, exclude_max=True),
        delta=st.floats(1e-6, 1.0),
    )
    def test_union_bound_covers_every_call(self, theta, eta, delta):
        # every call runs at delta / n, so the schedule may hold at most n
        # calls for the failures to sum within delta
        assume(theta + eta <= 1.0)
        query = ThresholdQuery(theta, eta, delta)
        n = _halving_calls(query)
        _, entries = schedule("bincert", query)
        spent = [plan.delta_call for _, plan in entries]
        assert len(spent) <= n
        assert set(spent) == {delta / n}


# Queries whose flanks are empty, narrow, or touch 0 or 1.
@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(
    theta=st.floats(0.0, 1.0),
    eta=st.floats(1e-6, 1.0, exclude_max=True),
    delta=st.floats(1e-6, 1.0),
)
@example(theta=0.0, eta=0.01, delta=1.0)
@example(theta=0.5, eta=0.5, delta=0.1)
@example(theta=0.05, eta=0.1, delta=0.1)
@example(theta=0.1, eta=1e-3, delta=0.01)
@example(theta=0.3, eta=0.01, delta=0.01)
def test_union_bound_covers_the_whole_schedule(name, theta, eta, delta):
    # Every call a run could make is in the schedule, so the per-call
    # failure budgets of the whole schedule must sum within delta.
    assume(theta + eta <= 1.0)
    _, entries = schedule(name, ThresholdQuery(theta, eta, delta))
    spent = [plan.delta_call for _, plan in entries]
    assert math.fsum(spent) <= delta * (1.0 + 1e-12)
    if name == "bincert":
        assert len(set(spent)) == 1


class TestBinCert:
    def test_zero_rate_settles_on_first_proving_call(self, seed):
        query = ThresholdQuery(0.5, 0.1, 0.01)
        report = run_strategy("bincert", query, BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        call = report.calls[0]
        assert call.side == "proving"
        assert (call.plan.theta1, call.plan.theta2) == (0.0, 0.5)
        delta_min = query.delta / _halving_calls(query)
        assert report.total_samples == plan_tester(0.0, 0.5, delta_min).n_samples == 27

    def test_full_rate_settles_on_first_refuting_call(self, seed):
        report = run_strategy("bincert", ThresholdQuery(0.5, 0.1, 0.01), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert [c.side for c in report.calls] == ["proving", "refuting"]
        assert report.calls[-1].outcome == "no"

    def test_in_band_rate_runs_whole_schedule(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = run_strategy("bincert", query, BernoulliOracle(0.4), seed)
        assert len(report.calls) == len(list(_halving_schedule(query)))
        last = report.calls[-1]
        assert last.side == "final"
        assert report.verdict.kind == ("yes" if last.outcome == "yes" else "no")

    def test_delta_accounting(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = run_strategy("bincert", query, BernoulliOracle(0.4), seed)
        spent = sum(c.plan.delta_call for c in report.calls)
        assert spent <= query.delta + 1e-12

    def test_calls_read_one_stream(self, seed, monkeypatch):
        # Every call reads a prefix of the stream; a call no longer than the
        # stream draws nothing, and one past its end draws only the trials
        # after it, so each trial is drawn once.
        import quantcert.strategy as strategy_module

        batch = 16
        oracle = CountingOracle(BernoulliOracle(0.125), batch_trials=batch)
        marks = []
        run = strategy_module.run_tester

        def marked(side, plan, stream):
            marks.append((stream.length, len(oracle.windows)))
            return run(side, plan, stream)

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
        # 27 and 74 read inside the proving call's 88 trials, and the final
        # call's 2109 inside the 2664 before it: three calls draw nothing
        assert [c.plan.n_samples for c in report.calls] == [88, 27, 74, 226, 749, 2664, 2109]
        assert [nxt - first for (_, first), nxt in zip(marks, ends)].count(0) == 3

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
            limits=ResourceLimits(max_samples=10),
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
        assert "delta_min = 0.0005139793782952352" in report.notes[0]


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
        # In 16-trial draws an unlimited run at p = 0.12 needs 167 draws
        # (bincert, seven calls) or 691 (estimate, one call), far past
        # 50 ms, so the deadline falls inside a call.
        full = run_strategy(name, self.QUERY, BernoulliOracle(0.12), seed)
        oracle = _SlowOracle(BernoulliOracle(0.12), batch_trials=16)
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
        sizes = sorted({plan.n_samples for _, plan in schedule(name, self.QUERY)[1]})
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
        notes, entries = schedule("fixedcert", query)
        return notes, [(side, plan.delta_call) for side, plan in entries]

    def test_reference_layout(self):
        notes, plans = self._plans(ThresholdQuery(0.3, 0.01, 0.01))
        # 0.3 / sqrt(0.01) evaluates one ulp under 3; the layout must still
        # cut the left flank three times.
        assert notes == ("grid layout: 3 proving + 6 refuting intervals at pitch sqrt(eta) = 0.1",)
        by_side = {side: [d for s, d in plans if s == side] for side in ("proving", "refuting", "final")}
        assert by_side["proving"] == [pytest.approx(0.01 / 9.0)] * 3
        assert by_side["refuting"] == [pytest.approx(0.01 / 18.0)] * 6
        assert by_side["final"] == [pytest.approx(0.01 / 3.0)]

    def test_narrow_left_flank_gets_no_calls(self):
        notes, plans = self._plans(ThresholdQuery(0.04, 0.01, 0.01))
        assert notes[0].startswith("grid layout: 0 proving + 9 refuting")
        assert [side for side, _ in plans] == ["refuting"] * 9 + ["final"]

    def test_delta_accounting(self):
        # each non-empty flank splits delta/3 evenly; the final call keeps delta/3
        for theta, eta in ((0.3, 0.01), (0.04, 0.01), (0.0, 0.04), (0.9, 0.05)):
            query = ThresholdQuery(theta, eta, 0.05)
            _, plans = self._plans(query)
            for side in ("proving", "refuting"):
                spent = [d for s, d in plans if s == side]
                assert len(set(spent)) <= 1
                assert math.fsum(spent) == pytest.approx(0.05 / 3.0 if spent else 0.0)
            assert [d for s, d in plans if s == "final"] == [0.05 / 3.0]
            assert math.fsum(d for _, d in plans) <= query.delta + 1e-12


class TestFixedSchedule:
    def test_reference_schedule(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        rows = list(_fixed_schedule(query, 3, 6))
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
        assert rows[-1] == ("final", 0.3, query.upper, 0.01 / 3.0)

    def test_grid_endpoints_are_exact(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        rows = list(_fixed_schedule(query, 3, 6))
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
        rows = list(_fixed_schedule(query, 0, 9))
        assert all(r[0] != "proving" for r in rows)
        assert rows[0][0] == "refuting"
        assert rows[-1][0] == "final"


class TestFixedCert:
    def test_zero_rate_reference_cost(self, seed):
        report = run_strategy("fixedcert", ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        assert report.total_samples == 137

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
        spent = sum(c.plan.delta_call for c in report.calls)
        assert spent <= query.delta + 1e-12

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
        assert call.plan.eta1 == call.plan.eta2 == query.eta / 2.0
        assert call.plan.t == query.theta + query.eta / 2.0
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
        assert bound.exact_schedule_total == 7_530_473  # the final call
        assert bound.k1 == pytest.approx(7496821.270234897, rel=1e-10)
        assert bound.k2 == pytest.approx(74968212.70234895, rel=1e-10)
        assert bound.k3 == pytest.approx(7530472.566355482, rel=1e-10)
        assert bound.analytic_total == max(bound.k1, bound.k2, bound.k3) == bound.k2

    def test_flank_terms_vanish_when_too_narrow(self):
        assert worst_case_budget(ThresholdQuery(0.01, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.005, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.9, 0.099, 0.1)).k2 == 0.0

    def test_zero_threshold_budget(self):
        # theta = 0 leaves no left flank, and a right flank of width eta
        # gets no call either
        bound = worst_case_budget(ThresholdQuery(0.0, 0.5, 0.01))
        assert bound.k1 == bound.k2 == 0.0
        assert bound.k3 == pytest.approx(22.815129898624804, rel=1e-12)
        assert bound.exact_schedule_total == 23

    @given(theta=st.floats(0.0, 0.99), eta=st.floats(1e-4, 0.5), delta=st.floats(1e-6, 1.0))
    @example(theta=0.1, eta=1e-3, delta=0.01)
    @example(theta=0.0, eta=0.5, delta=0.01)
    def test_terms_bound_each_flank_and_the_final_call(self, theta, eta, delta):
        assume(theta + eta <= 1.0)
        query = ThresholdQuery(theta, eta, delta)
        bound = worst_case_budget(query)
        term = {"proving": bound.k1, "refuting": bound.k2, "final": bound.k3}
        sizes = [(side, plan.n_samples) for side, plan in schedule("bincert", query)[1]]
        for side, n in sizes:
            # a size is its bound rounded up; 1e-9 absorbs eta versus upper - theta
            assert n <= math.ceil(term[side] * (1.0 + 1e-9)), (side, n, term[side])
        assert bound.exact_schedule_total == max(n for _, n in sizes)
        assert bound.exact_schedule_total <= math.ceil(bound.analytic_total * (1.0 + 1e-9))
        for side in ("proving", "refuting"):
            assert (term[side] == 0.0) == all(s != side for s, _ in sizes)

    def test_overflowing_bound_is_out_of_range(self):
        # eta squared is still nonzero, but 1 / eta^2 overflows
        query = ThresholdQuery(0.0, 1e-160, 0.1)
        with pytest.raises(OutOfRangeError, match="not finite"):
            worst_case_budget(query)
        with pytest.raises(OutOfRangeError, match="not finite"):
            baseline_samples(query)
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
        with pytest.raises(OutOfRangeError, match="unknown strategy"):
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


def _record(side, theta1, theta2, delta, successes=0):
    return CallRecord(side=side, plan=plan_tester(theta1, theta2, delta), successes=successes)


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
    # Each side's interval for QUERY at delta_call 0.01, with its (n, c).
    INTERVALS = {"proving": (0.0, 0.5), "refuting": (0.6, 1.0), "final": (0.5, 0.6)}

    def test_intervals_are_as_pinned(self):
        plans = {side: plan_tester(*interval, 0.01) for side, interval in self.INTERVALS.items()}
        assert {side: (p.n_samples, p.c) for side, p in plans.items()} == {
            "proving": (19, 0), "refuting": (219, 174), "final": (2480, 1370)}

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
        first = _record("proving", 0.0, 0.5, 0.01, successes=1)
        last = _record("refuting", 0.6, 1.0, 0.01, successes=175)
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
        blocked = _report(self.QUERY, [rec], Verdict("inconclusive", "budget-exhausted"))
        assert _check_report(blocked) is blocked

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


def _hand_plan(n, t):
    # only n_samples and t decide a call; the interval is irrelevant here
    return HandPlan(theta1=0.0, theta2=1.0, delta_call=0.1,
                      n_samples=n, eta1=t, eta2=1.0 - t, t=t)


# Hand-built schedules with n <= 16, small enough to enumerate every
# outcome sequence of the shared stream.  Sizes are not monotone, as on
# bincert's interleaved flanks, so a later call can read a shorter prefix;
# caps of 9 and 14 cut the first two schedules partway.  The first ends in
# a final call that cannot settle on either flank.
HAND_SCHEDULES = [
    [("proving", _hand_plan(4, 0.25)), ("refuting", _hand_plan(9, 0.6)),
     ("proving", _hand_plan(3, 1 / 3)), ("refuting", _hand_plan(6, 0.5)),
     ("final", _hand_plan(12, 0.5))],
    [("refuting", _hand_plan(16, 0.3)), ("proving", _hand_plan(5, 0.2)),
     ("final", _hand_plan(7, 0.0))],
    [("final", _hand_plan(11, 0.45))],
]


# The outcome with which a flank's call settles a run, written out again
# so the enumeration does not lean on the code it checks.
_SETTLES_ON = {"proving": "yes", "refuting": "no"}


def _enumerated_law(entries, p, max_samples):
    """Every 0/1 sequence of the stream's first T trials, weighted and walked."""
    length = max(plan.n_samples for _, plan in entries)
    trials = (np.arange(2 ** length)[:, None] >> np.arange(length)) & 1
    prefix = np.concatenate([np.zeros((2 ** length, 1), int), np.cumsum(trials, axis=1)], axis=1)
    hits = trials.sum(axis=1)
    weight = p ** hits * (1.0 - p) ** (length - hits)
    verdict = np.full(2 ** length, "open", dtype="<U12")
    total = np.zeros(2 ** length, int)
    for side, plan in entries:
        n = plan.n_samples
        live = verdict == "open"
        if max_samples is not None:
            verdict[live & (np.maximum(total, n) > max_samples)] = "inconclusive"
            live = verdict == "open"
        total[live] = np.maximum(total[live], n)
        says = np.where(prefix[:, n] / n <= plan.t, "yes", "no")
        settles = live & ((side == "final") | (says == _SETTLES_ON.get(side, "")))
        verdict[settles] = says[settles]
    verdict[verdict == "open"] = "inconclusive"
    ends = {v: math.fsum(weight[verdict == v]) for v in ("yes", "no", "inconclusive")}
    samples = {int(t): math.fsum(weight[total == t]) for t in np.unique(total)}
    return ends, {t: w for t, w in samples.items() if w > 0.0}


class TestScheduleLaw:
    @pytest.mark.parametrize("entries", HAND_SCHEDULES)
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("max_samples", [None, 0, 9, 14])
    def test_matches_enumeration(self, entries, p, max_samples):
        ends, samples = _enumerated_law(entries, p, max_samples)
        law = schedule_law(entries, p, max_samples)
        assert law.p_yes == pytest.approx(ends["yes"], abs=1e-12)
        assert law.p_no == pytest.approx(ends["no"], abs=1e-12)
        assert law.p_inconclusive == pytest.approx(ends["inconclusive"], abs=1e-12)
        assert [t for t, _ in law.samples] == sorted(samples)
        assert [w for _, w in law.samples] == pytest.approx(
            [samples[t] for t in sorted(samples)], abs=1e-12)

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

    def test_settled_run_plans_nothing_further(self, monkeypatch):
        import quantcert.strategy as strategy_module

        planned = []
        plan = strategy_module.plan_tester
        monkeypatch.setattr(strategy_module, "plan_tester",
                            lambda *a: planned.append(a) or plan(*a))
        law = schedule_law(schedule("bincert", ThresholdQuery(0.1, 0.05, 0.1))[1], 0.0)
        assert law.p_yes == 1.0 and len(planned) == 1

    def test_unknown_strategy(self):
        with pytest.raises(OutOfRangeError, match="unknown strategy"):
            schedule("magic", ThresholdQuery(0.3, 0.01, 0.01))
