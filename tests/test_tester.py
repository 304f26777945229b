import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

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
import quantcert.tester
from quantcert.core import SampleTally
from quantcert.strategy import _entry, run_strategy, run_tester, schedule
from quantcert.tester import TesterPlan as HandPlan
from quantcert.tester import TrialStream, _cutoff, plan_tester
from binomial_reference import chernoff_tail, exact_tails, feasible
from conftest import CountingOracle, FixedSuccessOracle
from test_corpus import QUERIES, STRATEGY_NAMES

INTERVAL = r"need 0 <= theta1 < theta2 <= 1"
CONFIDENCE = r"delta_call must sit in \(0, 1\]"
# Test ids name each check by the error class it raised before both checks
# became OutOfRangeError.
CHECK_IDS = {INTERVAL: "InvalidIntervalError", CONFIDENCE: "InvalidConfidenceError"}
ANSWERED = "answered .* one bool per trial"

# Plans small enough for the exact reference: (theta1, theta2, delta_call).
SMALL_PLANS = [(0.1, 0.5, 0.1), (0.0, 0.3, 0.1), (0.2, 0.6, 0.05), (0.05, 0.5, 0.05),
               (0.1, 0.6, 0.01), (0.25, 0.75, 0.1), (0.1, 0.3, 0.2), (0.6, 1.0, 0.01)]


def _sound(plan):
    """Both of the plan's exact tails are at most its delta_call."""
    upper, _ = exact_tails(plan.n_samples, plan.theta1, plan.c)
    _, lower = exact_tails(plan.n_samples, plan.theta2, plan.c)
    return max(upper, lower) <= Fraction(plan.delta_call)


def _tight(plan):
    """No cutoff makes one trial fewer feasible, even at the planner's margin under delta_call."""
    n, t1, t2, d = plan.n_samples, plan.theta1, plan.theta2, plan.delta_call
    return n == 1 or not feasible(n - 1, t1, t2, d * (1.0 - 2e-6))


class TestPlanTester:
    def test_reference_plan(self):
        plan = plan_tester(0.1, 0.2, 0.01)
        assert (plan.n_samples, plan.c) == (278, 40)
        assert plan == HandPlan(0.1, 0.2, 0.01, 278, 40)

    def test_zero_theta1_collapses(self):
        # no success can occur at theta1 = 0, so c = 0 and N is the least
        # with (1 - theta2)^N <= delta_call
        plan = plan_tester(0.0, 0.5, 0.01)
        assert (plan.n_samples, plan.c) == (7, 0)  # 0.5^7 <= 0.01 < 0.5^6

    def test_boundary_consistency(self):
        # the stored cutoff meets both exact tails, and the plan is no
        # larger than the closed form the bisection starts at
        for t1, t2, d in SMALL_PLANS:
            plan = plan_tester(t1, t2, d)
            assert _sound(plan), plan
            assert 0 <= plan.c < plan.n_samples
            assert plan.n_samples <= math.ceil(8.0 * t2 * math.log(1.0 / d) / (t2 - t1) ** 2)

    def test_closed_form_meets_the_chernoff_bounds(self):
        # N0 = ceil(8 theta2 ln(1/delta) / width^2) with the cutoff at the
        # midpoint: both bounds of the reference hold at half the width
        for t1, t2, d in [(0.1, 0.2, 0.01), (0.01, 0.02, 0.05), (0.003, 0.353, 1e-3),
                          (0.5, 0.501, 1e-9)]:
            n0 = math.ceil(8.0 * t2 * math.log(1.0 / d) / (t2 - t1) ** 2)
            half = (t2 - t1) / 2.0
            assert chernoff_tail(t1, half, n0, "upper") <= d * (1 + 1e-9)
            assert chernoff_tail(t2, half, n0, "lower") <= d * (1 + 1e-9)

    def test_n_minimality_on_grid(self):
        # N is feasible by the exact reference and N - 1 is not
        for t1, t2, d in SMALL_PLANS:
            plan = plan_tester(t1, t2, d)
            assert _sound(plan) and _tight(plan), plan

    def test_feasible_sizes_are_not_an_interval(self):
        # 9 and 11 trials are feasible, 10 and 12 are not: bisection stops at
        # 13, feasible with 12 not, which is not the smallest feasible N
        plan = plan_tester(0.3, 0.7, 0.1)
        assert (plan.n_samples, plan.c) == (13, 6)
        assert [feasible(n, 0.3, 0.7, 0.1) for n in range(8, 14)] == [
            False, True, False, True, False, True]

    @given(
        t1=st.floats(0.0, 0.9),
        width=st.floats(0.1, 1.0),
        d=st.floats(1e-4, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_plans_are_exact(self, t1, width, d):
        # random plans of at most a few dozen trials against the exact reference
        t2 = min(1.0, t1 + width)
        plan = plan_tester(t1, t2, d)
        if plan.n_samples <= 60:
            assert _sound(plan) and _tight(plan), plan

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
        assert 0 <= plan.c < plan.n_samples
        assert (plan.theta1, plan.theta2, plan.delta_call) == (t1, t2, d)

    def test_huge_plans_take_the_closed_form(self):
        # past 2^32 trials the plan is N0 with the midpoint cutoff, and
        # building it allocates nothing of its size
        plan = plan_tester(0.5, 0.5 + 1e-5, 0.01)
        n0 = math.ceil(8.0 * plan.theta2 * math.log(100.0) / (plan.theta2 - 0.5) ** 2)
        assert n0 > 2 ** 32 and plan.n_samples == n0
        assert plan.c == math.floor((Fraction(0.5) + Fraction(plan.theta2)) / 2 * n0)

    @pytest.mark.parametrize(
        "t1,t2,d,message",
        [(0.2, 0.1, 0.01, INTERVAL),
         (0.1, 0.1, 0.01, INTERVAL),
         (-0.01, 0.1, 0.01, INTERVAL),
         (0.1, 1.01, 0.01, INTERVAL),
         (0.1, 0.2, 0.0, CONFIDENCE),
         (0.1, 0.2, 1.5, CONFIDENCE),
         # ordered, but the width squared underflows to 0
         (0.0, 1e-300, 0.5, "too narrow")],
        ids=lambda v: CHECK_IDS.get(v),
    )
    def test_preconditions(self, t1, t2, d, message):
        with pytest.raises(OutOfRangeError, match=message):
            plan_tester(t1, t2, d)

    def test_delta_call_one_plans_no_trials(self):
        # At delta_call = 1 the closed form is 0: no trials, cutoff 0, and
        # both tails, P(S > 0) = 0 and P(S <= 0) = 1, are at most 1.
        assert plan_tester(0.1, 0.2, 1.0) == HandPlan(0.1, 0.2, 1.0, 0, 0)
        assert plan_tester(0.0, 1.0, 1.0) == HandPlan(0.0, 1.0, 1.0, 0, 0)

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
        assert math.copysign(1.0, signed.theta1) == 1.0
        assert math.copysign(1.0, plan_tester(0.0, 0.1, 0.1).theta1) == 1.0


# A call of 131 trials, which no batch size below divides.
ODD_PLAN = HandPlan(theta1=0.1, theta2=0.3, delta_call=0.05, n_samples=131, c=26)


def _run(plan, oracle, seed):
    """One call on a fresh stream, as the first call of a run makes it."""
    return run_tester(_entry("final", plan), TrialStream(oracle, seed))


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
        plan = ODD_PLAN
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
        plan = HandPlan(theta1=0.25, theta2=0.75, delta_call=0.1, n_samples=4, c=2)
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
        a = run_tester(_entry("final", long), stream)
        drawn = oracle.total_trials
        assert drawn == long.n_samples
        b = run_tester(_entry("final", short), stream)
        assert b.tally == _run(short, BernoulliOracle(0.17), seed).tally
        assert a.tally == _run(long, BernoulliOracle(0.17), seed).tally
        assert 0 <= a.tally.successes - b.tally.successes <= long.n_samples - short.n_samples
        assert oracle.total_trials == drawn
        assert stream.length == long.n_samples
        # asking again, or for the whole stream, draws nothing either
        assert run_tester(_entry("final", short), stream) == b
        assert run_tester(_entry("final", long), stream) == a
        assert oracle.total_trials == drawn

    def test_bad_knobs_rejected(self, seed):
        plan = plan_tester(0.1, 0.3, 0.05)
        # NaN, 2.5, "64" and True once died inside the first draw with a TypeError.
        for batch in (0, -3, math.nan, 1.5, 2.5, "64", True):
            with pytest.raises(OutOfRangeError, match="batch_trials"):
                _run(plan, CountingOracle(BernoulliOracle(0.2), batch_trials=batch), seed)

    def test_numpy_batch_is_accepted(self, seed):
        plan = ODD_PLAN
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

        plan = HandPlan(theta1=0.1, theta2=0.2, delta_call=0.01, n_samples=100, c=15)
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
            for call in schedule(name, query)[1]:
                yield call.plan


class TestCutoff:
    def test_cutoff_matches_the_rate_rule_on_corpus_plans(self):
        # every plan keeps its cutoff below its size; an estimate plan's
        # cutoff is the largest count whose rate is at most theta + eta/2,
        # compared exactly
        for plan in _corpus_plans():
            assert 0 <= plan.c < plan.n_samples, plan
        for query in (*QUERIES, ThresholdQuery(0.1, 2e-3, 0.01)):
            (call,) = schedule("estimate", query)[1]
            plan = call.plan
            t = Fraction(query.theta) + Fraction(query.eta) / 2
            assert Fraction(plan.c, plan.n_samples) <= t < Fraction(plan.c + 1, plan.n_samples)

    @pytest.mark.parametrize(
        "n, t, c",
        [
            (22, 15 / 22, 14),  # the float 15/22 is just under 15/22, though t * n rounds to 15
            (6, math.nextafter(5 / 6, 0.0), 4),  # t * n rounds up to 5
            (7, 0.0, 0),
            (7, 1.0, 7),
        ],
    )
    def test_cutoff_steps_past_rounding(self, n, t, c):
        assert _cutoff(n, t) == c

    @given(
        n=st.integers(min_value=1, max_value=10 ** 7),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_cutoff_is_the_largest_count_at_or_under_t(self, n, t):
        c = _cutoff(n, t)
        assert 0 <= c <= n and Fraction(c, n) <= t
        assert c == n or Fraction(c + 1, n) > t


# Planning and a Bernoulli run in a fresh interpreter: scipy.special adds
# about 26 MB to a process and most of a Bernoulli run's setup time, so
# nothing on that path may import it.
_BERNOULLI_SCRIPT = """\
import sys
import quantcert
from quantcert.tester import plan_tester
plan_tester(0.1, 0.102, 1e-3)
report = quantcert.run_strategy("bincert", (0.1, 2e-3, 0.01), quantcert.BernoulliOracle(0.0995),
                                quantcert.SeedSpec(7))
assert report.verdict.kind == "yes", report.verdict
print(sorted(name for name in sys.modules if name.startswith("scipy.special")))
"""


def test_the_bernoulli_path_does_not_import_scipy_special():
    src = os.path.dirname(os.path.dirname(quantcert.tester.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _BERNOULLI_SCRIPT], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
