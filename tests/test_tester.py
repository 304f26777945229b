import math

import pytest
from hypothesis import given, settings, strategies as st

from quantcert import TesterPlan as HandPlan
from quantcert import (
    BernoulliOracle,
    InvalidConfidenceError,
    InvalidIntervalError,
    OracleFailure,
    OutOfRangeError,
    SampleTally,
    SeedSpec,
)
from quantcert.tester import plan_tester, run_tester
from chernoff_reference import chernoff_tail
from conftest import CountingOracle, FixedSuccessOracle

# frozen by independent high-precision evaluation of the closed forms
EXPECTED_ETA1 = 0.046410161513775458
EXPECTED_T = 0.146410161513775458


class TestPlanTester:
    def test_reference_plan(self):
        plan = plan_tester(0.1, 0.2, 0.01)
        assert plan.n_samples == 642
        assert plan.eta1 == pytest.approx(EXPECTED_ETA1, abs=1e-6)
        assert plan.t == pytest.approx(EXPECTED_T, abs=1e-6)
        # tighter check against the frozen high-precision values
        assert plan.eta1 == pytest.approx(EXPECTED_ETA1, rel=1e-12)
        assert plan.t == pytest.approx(EXPECTED_T, rel=1e-12)

    def test_zero_theta1_collapses(self):
        plan = plan_tester(0.0, 0.5, 0.01)
        assert plan.n_samples == 19  # ceil((2/0.5) ln 100)
        assert plan.eta1 == 0.0
        assert plan.t == 0.0
        assert plan.eta2 == 0.5

    def test_eta2_defined_by_subtraction(self):
        plan = plan_tester(0.1, 0.2, 0.01)
        assert plan.eta2 == (plan.theta2 - plan.theta1) - plan.eta1

    def test_boundary_consistency(self):
        for t1, t2, d in [(0.1, 0.2, 0.01), (0.3, 0.31, 0.001), (0.0, 0.1, 0.5),
                          (0.55, 0.9, 0.2), (0.001, 0.002, 0.05)]:
            plan = plan_tester(t1, t2, d)
            assert plan.t == plan.theta1 + plan.eta1
            assert abs(plan.t - (plan.theta2 - plan.eta2)) <= 1e-12 * max(1.0, abs(plan.t))

    def test_equalized_tail_exponents(self):
        # the split is chosen so both one-sided exponents match
        for t1, t2, d in [(0.1, 0.2, 0.01), (0.25, 0.5, 0.1), (0.01, 0.9, 0.3),
                          (0.4, 0.41, 0.001)]:
            plan = plan_tester(t1, t2, d)
            left = 3.0 * plan.theta1 / (plan.eta1 * plan.eta1)
            right = 2.0 * plan.theta2 / (plan.eta2 * plan.eta2)
            assert left == pytest.approx(right, rel=1e-9)

    def test_n_minimality_on_grid(self):
        # N is the least integer making both tail bounds hit delta
        grid = [(t1, t2, d)
                for t1 in (0.02, 0.1, 0.3, 0.6)
                for t2 in (0.05, 0.15, 0.45, 0.75, 0.95)
                if t1 < t2
                for d in (0.01, 0.1, 0.4)]
        assert len(grid) >= 30
        for t1, t2, d in grid:
            plan = plan_tester(t1, t2, d)
            assert chernoff_tail(t1, plan.eta1, plan.n_samples, "upper") <= d * (1 + 1e-9)
            assert chernoff_tail(t2, plan.eta2, plan.n_samples, "lower") <= d * (1 + 1e-9)
            if plan.n_samples > 1:
                up = chernoff_tail(t1, plan.eta1, plan.n_samples - 1, "upper")
                lo = chernoff_tail(t2, plan.eta2, plan.n_samples - 1, "lower")
                assert max(up, lo) > d * (1 - 1e-4)

    @given(
        t1=st.floats(0.0, 0.85),
        width=st.floats(0.01, 0.15),
        d=st.floats(0.001, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_invariants_hold_generally(self, t1, width, d):
        t2 = t1 + width
        if t2 > 1.0:
            return
        plan = plan_tester(t1, t2, d)
        assert plan.n_samples >= 1
        assert 0.0 <= plan.eta1 < width
        assert plan.eta2 == (t2 - t1) - plan.eta1
        assert plan.theta1 <= plan.t <= plan.theta2

    @pytest.mark.parametrize(
        "t1,t2,d,err",
        [(0.2, 0.1, 0.01, InvalidIntervalError),
         (0.1, 0.1, 0.01, InvalidIntervalError),
         (-0.01, 0.1, 0.01, InvalidIntervalError),
         (0.1, 1.01, 0.01, InvalidIntervalError),
         (0.1, 0.2, 0.0, InvalidConfidenceError),
         (0.1, 0.2, 1.0, InvalidConfidenceError)],
    )
    def test_preconditions(self, t1, t2, d, err):
        with pytest.raises(err):
            plan_tester(t1, t2, d)


class TestRunTester:
    def test_draws_exactly_n(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        oracle = CountingOracle(BernoulliOracle(0.2))
        result = run_tester(plan, oracle, seed, batch_size=17)
        assert result.tally.trials == plan.n_samples
        assert oracle.total_trials == plan.n_samples
        # windows are disjoint, contiguous, and cover [0, N)
        windows = sorted(oracle.windows, key=lambda w: w[1])
        cursor = 0
        for _, start, k in windows:
            assert start == cursor
            cursor += k
        assert cursor == plan.n_samples

    def test_single_batch_when_batch_exceeds_n(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        oracle = CountingOracle(BernoulliOracle(0.2))
        run_tester(plan, oracle, seed, batch_size=10 * plan.n_samples)
        assert len(oracle.windows) == 1

    def test_batch_size_invariance(self, seed):
        plan = plan_tester(0.05, 0.25, 0.1)
        results = [
            run_tester(plan, BernoulliOracle(0.17), seed, batch_size=b)
            for b in (None, 1, 7, 128, 4096)
        ]
        assert len({r.tally.successes for r in results}) == 1
        assert len({r.outcome for r in results}) == 1

    def test_default_batch_comes_from_the_oracle(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        assert plan.n_samples == 131
        plain = CountingOracle(BernoulliOracle(0.2))  # no batch_trials
        run_tester(plan, plain, seed)
        assert [k for _, _, k in plain.windows] == [128, 3]
        sized = CountingOracle(BernoulliOracle(0.2))
        sized.batch_trials = 50
        run_tester(plan, sized, seed)
        assert [k for _, _, k in sized.windows] == [50, 50, 31]
        sized.windows.clear()
        run_tester(plan, sized, seed, batch_size=100)
        assert [k for _, _, k in sized.windows] == [100, 31]

    def test_tie_counts_as_yes(self, seed):
        plan = HandPlan(theta1=0.25, theta2=0.75, delta_call=0.1,
                          n_samples=4, eta1=0.25, eta2=0.25, t=0.5)
        exactly_half = FixedSuccessOracle({0, 1})
        assert run_tester(plan, exactly_half, seed).outcome == "yes"
        over_half = FixedSuccessOracle({0, 1, 2})
        assert run_tester(plan, over_half, seed).outcome == "no"

    def test_call_index_changes_draws(self, seed):
        # deterministic under the pinned seed; distinct calls see distinct streams
        plan = plan_tester(0.05, 0.25, 0.1)
        a = run_tester(plan, BernoulliOracle(0.17), seed, call_index=0)
        b = run_tester(plan, BernoulliOracle(0.17), seed, call_index=1)
        assert a.tally.successes != b.tally.successes

    def test_bad_knobs_rejected(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        with pytest.raises(OutOfRangeError):
            run_tester(plan, BernoulliOracle(0.2), seed, batch_size=0)

    def test_failure_carries_partial_tally(self, seed):
        class Breaks:
            def draw(self, k, call_index, seed, start=0):
                if start >= 30:
                    raise OracleFailure("down", partial_tally=SampleTally(4, 1))
                return SampleTally(k, k)  # all successes

        plan = HandPlan(theta1=0.1, theta2=0.2, delta_call=0.01,
                          n_samples=100, eta1=0.05, eta2=0.05, t=0.15)
        with pytest.raises(OracleFailure) as exc_info:
            run_tester(plan, Breaks(), seed, batch_size=10)
        partial = exc_info.value.partial_tally
        assert partial.trials == 34  # 3 clean batches of 10, plus 4 from the failure
        assert partial.successes == 31
