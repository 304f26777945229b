import math

import pytest
from hypothesis import given, strategies as st

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
    bincert,
    estimate_baseline,
    fixedcert,
    run_strategy,
)
from quantcert.strategy import (
    BinCertParams,
    FixedCertParams,
    baseline_samples,
    create_interval,
    worst_case_budget,
)
from quantcert.tester import plan_tester
from quantcert.strategy import _check_report, _fixed_schedule, _halving_schedule
from conftest import CountingOracle


class TestCreateInterval:
    def test_first_left_interval(self):
        assert create_interval(0.1, 0.0, 0.0, 0.001, left=True) == (0.0, 0.1)

    def test_first_right_interval(self):
        lo, hi = create_interval(0.1, 0.0, 0.0, 0.05, left=False)
        assert lo == 0.1 + 0.05 and hi == 1.0

    def test_left_halving_keeps_inner_end(self):
        assert create_interval(0.1, 0.0, 0.1, 0.001, left=True) == (0.05, 0.1)

    def test_right_halving_keeps_inner_end(self):
        lo, hi = create_interval(0.1, 0.15, 1.0, 0.001, left=False)
        assert lo == 0.15 and hi == 0.15 + 0.425

    def test_zero_threshold_left_stub(self):
        assert create_interval(0.0, 0.0, 0.0, 0.2, left=True) == (0.0, 0.2)
        assert create_interval(0.0, 0.0, 0.2, 0.2, left=True) == (0.0, 0.2)

    def test_step_never_shrinks_below_eta(self):
        lo, hi = create_interval(0.5, 0.3, 0.5, 0.15, left=True)
        assert (lo, hi) == (0.35, 0.5)

    def test_clamps_to_unit_interval(self):
        assert create_interval(0.5, 0.0, 0.05, 0.2, left=True) == (0.0, 0.05)
        assert create_interval(0.5, 0.9, 0.95, 0.2, left=False) == (0.9, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=-0.1, prev_theta1=0.0, prev_theta2=0.0, eta=0.1, left=True),
            dict(theta=1.5, prev_theta1=0.0, prev_theta2=0.0, eta=0.1, left=True),
            dict(theta=0.5, prev_theta1=0.0, prev_theta2=0.0, eta=0.0, left=True),
            dict(theta=0.5, prev_theta1=0.6, prev_theta2=0.2, eta=0.1, left=True),
            dict(theta=0.5, prev_theta1=0.2, prev_theta2=1.2, eta=0.1, left=False),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(OutOfRangeError):
            create_interval(**kwargs)

    @given(
        theta=st.floats(0.0, 1.0),
        eta=st.floats(1e-6, 0.5),
        prev=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        left=st.booleans(),
    )
    def test_result_is_ordered_and_clamped(self, theta, eta, prev, left):
        lo, hi = create_interval(theta, prev[0], prev[1], eta, left)
        assert 0.0 <= lo <= hi <= 1.0


class TestBinCertParams:
    def test_reference_query(self):
        params = BinCertParams.from_query(ThresholdQuery(0.1, 1e-3, 0.01))
        assert params.n_calls_bound == pytest.approx(19.45603349528917, rel=1e-12)
        assert params.delta_min == pytest.approx(0.0005139793782952352, rel=1e-12)

    def test_zero_threshold_drops_left_term(self):
        params = BinCertParams.from_query(ThresholdQuery(0.0, 0.01, 0.1))
        assert params.n_calls_bound == pytest.approx(3.0 + math.log2(0.99 / 0.01))

    def test_band_touching_one_drops_right_term(self):
        params = BinCertParams.from_query(ThresholdQuery(0.5, 0.5, 0.1))
        assert params.n_calls_bound == 3.0
        assert params.delta_min == pytest.approx(0.1 / 3.0)

    def test_flanks_narrower_than_eta_contribute_nothing(self):
        params = BinCertParams.from_query(ThresholdQuery(0.05, 0.1, 0.1))
        # left term clips at zero: log2(0.05 / 0.1) < 0
        assert params.n_calls_bound == pytest.approx(3.0 + math.log2(0.85 / 0.1))


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
        params = BinCertParams.from_query(query)
        assert rows[-1] == ("final", 0.1, query.upper)
        assert len(rows) <= math.ceil(params.n_calls_bound)

    def test_schedule_length_never_exceeds_call_bound(self):
        for theta in (0.0, 0.01, 0.1, 0.5, 0.9):
            for eta in (0.005, 0.05, 0.3):
                if theta + eta > 1.0:
                    continue
                query = ThresholdQuery(theta, eta, 0.05)
                rows = list(_halving_schedule(query))
                bound = BinCertParams.from_query(query).n_calls_bound
                assert len(rows) <= math.ceil(bound)

    @given(
        theta=st.floats(0.0, 1.0),
        eta=st.floats(1e-6, 1.0, exclude_max=True),
        delta=st.floats(1e-6, 1.0),
    )
    def test_union_bound_covers_every_call(self, theta, eta, delta):
        # every call runs at delta / n_calls_bound, so the schedule may hold
        # at most n_calls_bound calls for the failures to sum within delta
        if theta + eta > 1.0:
            return
        query = ThresholdQuery(theta, eta, delta)
        params = BinCertParams.from_query(query)
        assert len(list(_halving_schedule(query))) <= params.n_calls_bound


class TestBinCert:
    def test_zero_rate_settles_on_first_proving_call(self, seed):
        query = ThresholdQuery(0.5, 0.1, 0.01)
        report = bincert(query, BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        call = report.calls[0]
        assert call.side == "proving"
        assert (call.plan.theta1, call.plan.theta2) == (0.0, 0.5)
        delta_min = BinCertParams.from_query(query).delta_min
        assert report.total_samples == plan_tester(0.0, 0.5, delta_min).n_samples == 27

    def test_full_rate_settles_on_first_refuting_call(self, seed):
        report = bincert(ThresholdQuery(0.5, 0.1, 0.01), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert [c.side for c in report.calls] == ["proving", "refuting"]
        assert report.calls[-1].outcome == "no"

    def test_in_band_rate_runs_whole_schedule(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = bincert(query, BernoulliOracle(0.4), seed)
        assert len(report.calls) == len(list(_halving_schedule(query)))
        last = report.calls[-1]
        assert last.side == "final"
        assert report.verdict.kind == ("yes" if last.outcome == "yes" else "no")

    def test_delta_accounting(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        report = bincert(query, BernoulliOracle(0.4), seed)
        spent = sum(c.plan.delta_call for c in report.calls)
        assert spent <= query.delta + 1e-12

    def test_calls_use_consecutive_stream_indices(self, seed):
        oracle = CountingOracle(BernoulliOracle(0.4))
        report = bincert(ThresholdQuery(0.3, 0.2, 0.1), oracle, seed, batch_size=10**9)
        assert [w[0] for w in oracle.windows] == list(range(len(report.calls)))

    def test_zero_threshold_query(self, seed):
        report = bincert(ThresholdQuery(0.0, 0.25, 0.1), BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert [c.side for c in report.calls] == [
            "refuting",
            "refuting",
            "final",
        ]
        report = bincert(ThresholdQuery(0.0, 0.25, 0.1), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert len(report.calls) == 1

    def test_sample_budget_blocks_before_first_call(self, seed):
        report = bincert(
            ThresholdQuery(0.5, 0.1, 0.01),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_samples=10),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "budget-exhausted"
        assert report.calls == () and report.total_samples == 0

    def test_wall_clock_budget(self, seed):
        report = bincert(
            ThresholdQuery(0.5, 0.1, 0.01),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_wall_ms=0.0),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "timeout"

    @pytest.mark.parametrize(
        "bad", [dict(max_samples=-5), dict(max_wall_ms=-1.0), dict(max_wall_ms=math.nan)]
    )
    def test_limits_reject_negative_and_nan(self, bad):
        with pytest.raises(OutOfRangeError):
            ResourceLimits(**bad)
        assert ResourceLimits(max_samples=0, max_wall_ms=0.0).max_samples == 0

    def test_notes_record_call_budget(self, seed):
        query = ThresholdQuery(0.1, 1e-3, 0.01)
        params = BinCertParams.from_query(query)
        report = bincert(query, BernoulliOracle(0.0), seed)
        assert repr(params.delta_min) in report.notes[0]


class TestFixedCertParams:
    def test_reference_layout(self):
        params = FixedCertParams.from_query(ThresholdQuery(0.3, 0.01, 0.01))
        # 0.3 / sqrt(0.01) evaluates one ulp under 3; the layout must still
        # cut the left flank three times.
        assert params.n_left == 3 and params.n_right == 6
        assert params.alpha_left == pytest.approx(0.1)
        assert params.alpha_right == pytest.approx(0.115)
        assert params.delta_left == pytest.approx(0.01 / 9.0)
        assert params.delta_right == pytest.approx(0.01 / 18.0)
        assert params.delta_final == pytest.approx(0.01 / 3.0)

    def test_narrow_left_flank_gets_no_calls(self):
        params = FixedCertParams.from_query(ThresholdQuery(0.04, 0.01, 0.01))
        assert params.n_left == 0
        assert params.alpha_left == 0.0 and params.delta_left == 0.0
        assert params.n_right == 9

    def test_delta_accounting(self):
        for theta, eta in ((0.3, 0.01), (0.04, 0.01), (0.0, 0.04), (0.9, 0.05)):
            q = ThresholdQuery(theta, eta, 0.05)
            p = FixedCertParams.from_query(q)
            spent = (
                p.n_left * p.delta_left
                + p.n_right * p.delta_right
                + p.delta_final
            )
            assert spent <= q.delta + 1e-12


class TestFixedSchedule:
    def test_reference_schedule(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        params = FixedCertParams.from_query(query)
        rows = list(_fixed_schedule(query, params))
        assert len(rows) == params.n_left + params.n_right + 1
        side0, lo0, hi0, d0 = rows[0]
        assert (side0, lo0) == ("proving", 0.0)
        assert hi0 == pytest.approx(0.1) and d0 == params.delta_left
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
        assert rows[-1] == ("final", 0.3, query.upper, params.delta_final)

    def test_grid_endpoints_are_exact(self):
        query = ThresholdQuery(0.3, 0.01, 0.01)
        params = FixedCertParams.from_query(query)
        rows = list(_fixed_schedule(query, params))
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
        rows = list(_fixed_schedule(query, FixedCertParams.from_query(query)))
        assert all(r[0] != "proving" for r in rows)
        assert rows[0][0] == "refuting"
        assert rows[-1][0] == "final"


class TestFixedCert:
    def test_zero_rate_reference_cost(self, seed):
        report = fixedcert(ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(0.0), seed)
        assert report.verdict.kind == "yes"
        assert len(report.calls) == 1
        assert report.total_samples == 137

    def test_full_rate(self, seed):
        report = fixedcert(ThresholdQuery(0.3, 0.01, 0.01), BernoulliOracle(1.0), seed)
        assert report.verdict.kind == "no"
        assert [c.side for c in report.calls] == ["proving", "refuting"]

    def test_in_band_rate_reaches_final_call(self, seed):
        query = ThresholdQuery(0.3, 0.04, 0.05)
        report = fixedcert(query, BernoulliOracle(0.32), seed)
        last = report.calls[-1]
        assert last.side == "final"
        assert (last.plan.theta1, last.plan.theta2) == (query.theta, query.upper)
        assert report.verdict.kind == ("yes" if last.outcome == "yes" else "no")

    def test_report_delta_accounting(self, seed):
        query = ThresholdQuery(0.3, 0.04, 0.05)
        report = fixedcert(query, BernoulliOracle(0.32), seed)
        spent = sum(c.plan.delta_call for c in report.calls)
        assert spent <= query.delta + 1e-12

    def test_sample_budget(self, seed):
        report = fixedcert(
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
        report = estimate_baseline(query, BernoulliOracle(0.0), seed)
        assert report.strategy == "estimate"
        assert report.verdict.kind == "yes"
        assert report.total_samples == 832
        (call,) = report.calls
        assert call.side == "final"
        assert call.plan.eta1 == call.plan.eta2 == query.eta / 2.0
        assert call.plan.t == query.theta + query.eta / 2.0
        assert call.plan.delta_call == query.delta

    def test_estimate_rejects_high_rate(self, seed):
        report = estimate_baseline(
            ThresholdQuery(0.1, 0.1, 0.5), BernoulliOracle(0.5), seed
        )
        assert report.verdict.kind == "no"

    def test_estimate_respects_budget(self, seed):
        report = estimate_baseline(
            ThresholdQuery(0.1, 0.1, 0.5),
            BernoulliOracle(0.0),
            seed,
            limits=ResourceLimits(max_samples=100),
        )
        assert report.verdict.kind == "inconclusive"
        assert report.calls == ()


class TestWorstCaseBudget:
    def test_reference_budget(self):
        bound = worst_case_budget(ThresholdQuery(0.1, 1e-3, 0.01))
        assert bound.exact_schedule_total == 14_884_190
        assert bound.k1 == pytest.approx(99947621.17477162, rel=1e-10)
        assert bound.k2 == pytest.approx(99957586.01667646, rel=1e-10)
        assert bound.k3 == pytest.approx(7530472.566355482, rel=1e-10)
        assert bound.analytic_total == bound.k1 + bound.k2 + bound.k3

    def test_flank_terms_vanish_when_too_narrow(self):
        assert worst_case_budget(ThresholdQuery(0.01, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.005, 0.01, 0.1)).k1 == 0.0
        assert worst_case_budget(ThresholdQuery(0.9, 0.099, 0.1)).k2 == 0.0

    def test_zero_threshold_budget(self):
        bound = worst_case_budget(ThresholdQuery(0.0, 0.5, 0.01))
        assert bound.k1 == 0.0
        assert bound.k2 == pytest.approx(225.84650282701858, rel=1e-12)
        assert bound.k3 == pytest.approx(22.815129898624804, rel=1e-12)
        assert bound.exact_schedule_total == 23

    def test_exact_total_dominates_observed_runs(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        cap = worst_case_budget(query).exact_schedule_total
        for p in (0.0, 0.25, 0.5, 1.0):
            report = bincert(query, BernoulliOracle(p), seed)
            assert report.total_samples <= cap


class TestReportSerialization:
    def test_canonical_json_ignores_performance_knobs(self, seed):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        runs = [
            bincert(
                query,
                BernoulliOracle(0.4),
                seed,
                batch_size=batch,
                config={"batch_size": batch, "tag": "keep"},
            )
            for batch in (None, 16, 128, 4096)
        ]
        blobs = {r.canonical_json() for r in runs}
        assert len(blobs) == 1
        blob = blobs.pop()
        assert '"batch_size"' not in blob
        assert '"wall_time_ms"' not in blob
        assert '"tag":"keep"' in blob

    def test_replay_is_byte_identical(self):
        query = ThresholdQuery(0.3, 0.2, 0.1)
        a = bincert(query, BernoulliOracle(0.4), SeedSpec(99))
        b = bincert(query, BernoulliOracle(0.4), SeedSpec(99))
        assert a.canonical_json() == b.canonical_json()

    def test_full_json_keeps_timing(self, seed):
        report = bincert(ThresholdQuery(0.5, 0.1, 0.01), BernoulliOracle(0.0), seed)
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


def _record(side, theta1, theta2, delta, outcome, trials=None, successes=0):
    plan = plan_tester(theta1, theta2, delta)
    tally = SampleTally(plan.n_samples if trials is None else trials, successes)
    return CallRecord(
        side=side,
        plan=plan,
        tally=tally,
        outcome=outcome,
    )


def _report(query, calls, verdict, total=None):
    return CertificationReport(
        query=query,
        strategy="bincert",
        verdict=verdict,
        total_samples=sum(c.tally.trials for c in calls) if total is None else total,
        seed=SeedSpec(1),
        calls=tuple(calls),
        wall_time_ms=0.0,
    )


class TestReportInvariants:
    QUERY = ThresholdQuery(0.5, 0.1, 0.01)

    def test_accepts_consistent_report(self):
        rec = _record("proving", 0.0, 0.5, 0.01, "yes")
        assert _check_report(_report(self.QUERY, [rec], Verdict.yes())) is not None

    def test_total_must_match_tallies(self):
        rec = _record("proving", 0.0, 0.5, 0.01, "yes")
        with pytest.raises(ReportInvariantError, match="total_samples"):
            _check_report(
                _report(self.QUERY, [rec], Verdict.yes(), total=rec.tally.trials + 1)
            )

    def test_proving_interval_must_stay_below_theta(self):
        rec = _record("proving", 0.0, 0.6, 0.01, "yes")
        with pytest.raises(ReportInvariantError, match="proving"):
            _check_report(_report(self.QUERY, [rec], Verdict.yes()))

    def test_refuting_interval_must_stay_above_band(self):
        rec = _record("refuting", 0.55, 1.0, 0.01, "no")
        with pytest.raises(ReportInvariantError, match="refuting"):
            _check_report(_report(self.QUERY, [rec], Verdict.no()))

    def test_final_call_must_test_the_band(self):
        rec = _record("final", 0.5, 0.7, 0.01, "yes")
        with pytest.raises(ReportInvariantError, match="final"):
            _check_report(_report(self.QUERY, [rec], Verdict.yes()))

    def test_completed_call_must_draw_planned_trials(self):
        rec = _record("proving", 0.0, 0.5, 0.01, "yes", trials=3)
        with pytest.raises(ReportInvariantError, match="trial count"):
            _check_report(_report(self.QUERY, [rec], Verdict.yes()))

    def test_yes_needs_supporting_last_call(self):
        rec = _record("refuting", 0.6, 1.0, 0.01, "yes")
        with pytest.raises(ReportInvariantError, match="yes verdict"):
            _check_report(_report(self.QUERY, [rec], Verdict.yes()))

    def test_no_needs_supporting_last_call(self):
        rec = _record("proving", 0.0, 0.5, 0.01, "no")
        with pytest.raises(ReportInvariantError, match="no verdict"):
            _check_report(_report(self.QUERY, [rec], Verdict.no()))
