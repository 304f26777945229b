import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantcert import (
    BernoulliOracle,
    OracleFailure,
    OutOfRangeError,
    ThresholdQuery,
    TrialOutcomes,
)
from quantcert.core import SampleTally
from quantcert.strategy import _entry, run_strategy, run_tester, schedule
from quantcert.tester import TesterPlan as HandPlan
from quantcert.tester import TrialStream, plan_tester
from chernoff_reference import chernoff_tail
from conftest import CountingOracle, FixedSuccessOracle
from test_corpus import QUERIES, STRATEGY_NAMES

INTERVAL = r"need 0 <= theta1 < theta2 <= 1"
CONFIDENCE = r"delta_call must sit in \(0, 1\)"
# Test ids name each check by the error class it raised before both checks
# became OutOfRangeError.
CHECK_IDS = {INTERVAL: "InvalidIntervalError", CONFIDENCE: "InvalidConfidenceError"}
ANSWERED = "answered .* one bool per trial"

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
        "t1,t2,d,message",
        [(0.2, 0.1, 0.01, INTERVAL),
         (0.1, 0.1, 0.01, INTERVAL),
         (-0.01, 0.1, 0.01, INTERVAL),
         (0.1, 1.01, 0.01, INTERVAL),
         (0.1, 0.2, 0.0, CONFIDENCE),
         (0.1, 0.2, 1.0, CONFIDENCE),
         # ordered, but the width squared underflows to 0
         (0.0, 1e-300, 0.5, "too narrow")],
        ids=lambda v: CHECK_IDS.get(v),
    )
    def test_preconditions(self, t1, t2, d, message):
        with pytest.raises(OutOfRangeError, match=message):
            plan_tester(t1, t2, d)

    def test_cached_plans_keep_every_check(self):
        # The plan cache keys on floats, where True == 1, np.float64(x) == x
        # and -0.0 == 0.0; each check must still see the value passed, and
        # a zero plans as 0.0 whatever its sign.
        warm = plan_tester(0.0, 1, 0.1)
        with pytest.raises(OutOfRangeError, match="theta2 must sit in"):
            plan_tester(0.0, True, 0.1)
        with pytest.raises(OutOfRangeError, match="theta1 must sit in"):
            plan_tester(math.nan, 1, 0.1)
        with pytest.raises(OutOfRangeError, match="delta_call must sit in"):
            plan_tester(0.0, 1, math.nan)
        numpy_plan = plan_tester(np.float64(0.0), np.int64(1), np.float32(0.5) / 5)
        assert numpy_plan == plan_tester(0.0, 1.0, float(np.float32(0.5) / 5))
        assert plan_tester(np.float64(0.0), np.float64(1.0), 0.1) == warm
        assert all(type(v) is float for v in (numpy_plan.theta1, numpy_plan.theta2))
        signed = plan_tester(-0.0, 0.1, 0.1)
        assert math.copysign(1.0, signed.theta1) == math.copysign(1.0, signed.t) == 1.0
        assert math.copysign(1.0, plan_tester(0.0, 0.1, 0.1).theta1) == 1.0


def _run(plan, oracle, seed):
    """One call on a fresh stream, as the first call of a run makes it."""
    return run_tester(*_entry("final", plan), TrialStream(oracle, seed))


class TestRunTester:
    def test_draws_exactly_n(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        oracle = CountingOracle(BernoulliOracle(0.2), batch_trials=17)
        result = _run(plan, oracle, seed)
        assert result.tally.trials == plan.n_samples
        assert oracle.total_trials == plan.n_samples
        # windows are disjoint, contiguous, and cover [0, N)
        cursor = 0
        for start, k in sorted(oracle.windows):
            assert start == cursor
            cursor += k
        assert cursor == plan.n_samples

    def test_single_batch_when_batch_exceeds_n(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        oracle = CountingOracle(BernoulliOracle(0.2), batch_trials=10 * plan.n_samples)
        _run(plan, oracle, seed)
        assert len(oracle.windows) == 1

    def test_batch_size_invariance(self, seed):
        plan = plan_tester(0.05, 0.25, 0.1)
        results = [_run(plan, BernoulliOracle(0.17), seed)] + [
            _run(plan, CountingOracle(BernoulliOracle(0.17), batch_trials=b), seed)
            for b in (1, 7, 128, 4096)
        ]
        assert len({r.tally.successes for r in results}) == 1
        assert len({r.outcome for r in results}) == 1

    def test_default_batch_comes_from_the_oracle(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        assert plan.n_samples == 131
        plain = CountingOracle(BernoulliOracle(0.2))  # no batch_trials
        _run(plan, plain, seed)
        assert [k for _, k in plain.windows] == [128, 3]
        sized = CountingOracle(BernoulliOracle(0.2), batch_trials=50)
        _run(plan, sized, seed)
        assert [k for _, k in sized.windows] == [50, 50, 31]
        sized = CountingOracle(BernoulliOracle(0.2), batch_trials=100)
        _run(plan, sized, seed)
        assert [k for _, k in sized.windows] == [100, 31]

    def test_tie_counts_as_yes(self, seed):
        plan = HandPlan(theta1=0.25, theta2=0.75, delta_call=0.1,
                          n_samples=4, eta1=0.25, eta2=0.25, t=0.5)
        exactly_half = FixedSuccessOracle({0, 1})
        assert _run(plan, exactly_half, seed).outcome == "yes"
        over_half = FixedSuccessOracle({0, 1, 2})
        assert _run(plan, over_half, seed).outcome == "no"

    def test_calls_read_prefixes_of_one_stream(self, seed):
        # a shorter call counts a prefix of a longer one's trials and reads
        # the outcomes the stream keeps, drawing nothing
        short, long = plan_tester(0.05, 0.25, 0.1), plan_tester(0.1, 0.2, 0.05)
        assert short.n_samples < long.n_samples
        oracle = CountingOracle(BernoulliOracle(0.17), batch_trials=16)
        stream = TrialStream(oracle, seed)
        a = run_tester(*_entry("final", long), stream)
        drawn = oracle.total_trials
        assert drawn == long.n_samples
        b = run_tester(*_entry("final", short), stream)
        assert b.tally == _run(short, BernoulliOracle(0.17), seed).tally
        assert a.tally == _run(long, BernoulliOracle(0.17), seed).tally
        assert 0 <= a.tally.successes - b.tally.successes <= long.n_samples - short.n_samples
        assert oracle.total_trials == drawn
        assert stream.length == long.n_samples
        # asking again, or for the whole stream, draws nothing either
        assert run_tester(*_entry("final", short), stream) == b
        assert run_tester(*_entry("final", long), stream) == a
        assert oracle.total_trials == drawn

    def test_bad_knobs_rejected(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        # NaN, 2.5, "64" and True once died inside the first draw with a TypeError.
        for batch in (0, -3, math.nan, 1.5, 2.5, "64", True):
            with pytest.raises(OutOfRangeError, match="batch_trials"):
                _run(plan, CountingOracle(BernoulliOracle(0.2), batch_trials=batch), seed)

    def test_numpy_batch_is_accepted(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        oracle = CountingOracle(BernoulliOracle(0.2), batch_trials=np.int64(50))
        _run(plan, oracle, seed)
        assert [k for _, k in oracle.windows] == [50, 50, 31]

    # An oracle that answered nothing once certified yes, and one that
    # over-reported died as an out-of-range value, the caller's error.
    # Draws once returned a bare SampleTally; that fails typed too, naming
    # what a draw returns now.
    @pytest.mark.parametrize(
        "answer, message",
        [(lambda k: TrialOutcomes(np.zeros(0, dtype=bool)), ANSWERED),
         (lambda k: TrialOutcomes(np.arange(k - 1) == 0), ANSWERED),
         (lambda k: TrialOutcomes(np.arange(k + 5) == 0), ANSWERED),
         (lambda k: TrialOutcomes((np.arange(k) == 0).reshape(k, 1)), ANSWERED),
         (lambda k: TrialOutcomes((np.arange(k) == 0).astype(np.int64)), ANSWERED),
         (lambda k: SampleTally(k, 1), "returned SampleTally; a draw returns TrialOutcomes")],
        ids=["none", "fewer", "more", "2-d", "not-bool", "bare-tally"],
    )
    def test_draw_must_answer_every_trial_asked_for(self, seed, answer, message):
        class Miscounts:
            batch_trials = 10

            def draw(self, seed, start, count):
                return TrialOutcomes(np.arange(count) == 0) if start < 20 else answer(count)

        with pytest.raises(OracleFailure, match=message) as exc_info:
            run_strategy("bincert", (0.1, 0.05, 0.1), Miscounts(), seed)
        assert exc_info.value.partial_tally == SampleTally(20, 2)

    def test_failure_carries_partial_tally(self, seed):
        class Breaks:
            batch_trials = 10

            def draw(self, seed, start, count):
                if start >= 30:
                    raise OracleFailure("down", partial_tally=SampleTally(4, 1))
                return TrialOutcomes(np.ones(count, dtype=bool))  # all successes

        plan = HandPlan(theta1=0.1, theta2=0.2, delta_call=0.01,
                          n_samples=100, eta1=0.05, eta2=0.05, t=0.15)
        with pytest.raises(OracleFailure) as exc_info:
            _run(plan, Breaks(), seed)
        partial = exc_info.value.partial_tally
        assert partial.trials == 34  # 3 clean batches of 10, plus 4 from the failure
        assert partial.successes == 31


# Batch sizes of the draw-once test: one trial, a few, the fallback and
# BernoulliOracle's own, which covers a whole run in one draw.
ONCE_BATCHES = (1, 16, 128, BernoulliOracle.batch_trials)


def test_each_trial_is_drawn_exactly_once(seed):
    # Calls come in any size order (bincert's refuting calls are smaller
    # than the proving call before them); the draws must still tile
    # [0, total_samples) with no overlap and no gap, and every call must
    # count the same prefix a single draw of the stream does.
    query = ThresholdQuery(0.1, 0.05, 0.1)
    for name, p, batch in itertools.product(STRATEGY_NAMES, (0.0, 0.02, 0.2, 0.5),
                                            ONCE_BATCHES):
        oracle = CountingOracle(BernoulliOracle(p), batch_trials=batch)
        report = run_strategy(name, query, oracle, seed)
        case = (name, p, batch)
        starts = [start for start, _ in oracle.windows]
        ends = list(itertools.accumulate(k for _, k in oracle.windows))
        assert starts == [0] + ends[:-1], case
        assert ends[-1] == report.total_samples == oracle.total_trials, case
        hits = BernoulliOracle(p).draw(seed, 0, report.total_samples).hits
        for call in report.calls:
            assert call.successes == np.count_nonzero(hits[:call.plan.n_samples]), case


def _corpus_plans():
    """Every plan the Bernoulli corpus queries and bench's bern-tight produce."""
    for query in (*QUERIES, ThresholdQuery(0.1, 2e-3, 0.01)):
        for name in STRATEGY_NAMES:
            for plan, _, _ in schedule(name, query)[1]:
                yield plan


class TestCutoff:
    def test_cutoff_matches_the_rate_rule_on_corpus_plans(self):
        # s <= c must agree with s / n <= t at every count; chunked so the
        # estimate plan of bern-tight (13.8 M trials) stays small in memory
        plans = list(_corpus_plans())
        assert max(plan.n_samples for plan in plans) > 10_000_000
        for plan in plans:
            n = plan.n_samples
            for lo in range(0, n + 1, 1 << 20):
                s = np.arange(lo, min(n + 1, lo + (1 << 20)))
                assert np.array_equal(s <= plan.c, s / n <= plan.t), plan

    @pytest.mark.parametrize(
        "n, t, c",
        [
            (22, 15 / 22, 15),  # t * n rounds to just under 15
            (6, math.nextafter(5 / 6, 0.0), 4),  # t * n rounds up to 5
            (7, 0.0, 0),
            (7, 1.0, 7),
        ],
    )
    def test_cutoff_steps_past_rounding(self, n, t, c):
        plan = HandPlan(theta1=0.0, theta2=1.0, delta_call=0.1,
                        n_samples=n, eta1=t, eta2=1.0 - t, t=t)
        assert plan.c == c

    @given(
        n=st.integers(min_value=1, max_value=10 ** 7),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_cutoff_is_the_largest_count_at_or_under_t(self, n, t):
        plan = HandPlan(theta1=0.0, theta2=1.0, delta_call=0.1,
                        n_samples=n, eta1=t, eta2=1.0 - t, t=t)
        c = plan.c
        assert 0 <= c <= n and c / n <= t
        assert c == n or (c + 1) / n > t
