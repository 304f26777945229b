import csv
import io
import json

import pytest

from quantcert import (
    BernoulliOracle,
    OutOfRangeError,
    ResourceLimits,
    SeedSpec,
    ThresholdQuery,
)
from quantcert.sim import complexity_sweep, soundness_trial
from quantcert.strategy import worst_case_budget


QUERY = ThresholdQuery(0.1, 0.05, 0.1)


class TestSoundnessTrial:
    def test_zero_rate_always_certifies(self, seed):
        stats = soundness_trial("bincert", QUERY, 0.0, 20, seed)
        assert stats.yes_count == 20
        assert stats.no_count == stats.inconclusive_count == 0
        assert stats.failure_rate == 0.0
        assert stats.mean_samples > 0

    def test_high_rate_always_refutes(self, seed):
        stats = soundness_trial("bincert", QUERY, 0.9, 20, seed)
        assert stats.no_count == 20
        assert stats.failure_rate == 0.0

    def test_in_band_rate_has_no_failure_notion(self, seed):
        stats = soundness_trial("bincert", QUERY, 0.125, 5, seed)
        assert stats.failure_rate is None
        assert stats.yes_count + stats.no_count + stats.inconclusive_count == 5

    def test_band_edges_carry_guarantees(self, seed):
        # the band is open: p exactly at theta counts as a must-yes and p
        # exactly at theta + eta as a must-no; p just inside either edge
        # carries no guarantee
        at_theta = soundness_trial("bincert", QUERY, QUERY.theta, 3, seed)
        assert at_theta.failure_rate is not None
        above = soundness_trial("bincert", QUERY, QUERY.theta + 1e-6, 3, seed)
        assert above.failure_rate is None
        at_upper = soundness_trial("bincert", QUERY, QUERY.upper, 3, seed)
        assert at_upper.failure_rate is not None
        below = soundness_trial("bincert", QUERY, QUERY.upper - 1e-6, 3, seed)
        assert below.failure_rate is None

    def test_single_trial_has_zero_stddev(self, seed):
        stats = soundness_trial("fixedcert", QUERY, 0.0, 1, seed)
        assert stats.trials == 1
        assert stats.stddev_samples == 0.0
        assert stats.mean_samples == stats.median_samples

    def test_inconclusive_counts_as_failure_outside_band(self, seed):
        limits = ResourceLimits(max_samples=1)
        stats = soundness_trial("bincert", QUERY, 0.0, 4, seed, limits=limits)
        assert stats.inconclusive_count == 4
        assert stats.failure_rate == 1.0

    def test_rejects_bad_arguments(self, seed):
        with pytest.raises(OutOfRangeError):
            soundness_trial("bincert", QUERY, 1.5, 5, seed)
        with pytest.raises(OutOfRangeError):
            soundness_trial("bincert", QUERY, 0.5, 0, seed)

    def test_trials_use_distinct_child_seeds(self, seed):
        # 0.62 sits near the second refuting call's cutoff, so some trials
        # settle there and some fall through to the final call; identical
        # per-trial seeds would make the stddev collapse to zero
        stats = soundness_trial("bincert", ThresholdQuery(0.3, 0.2, 0.1), 0.62, 10, seed)
        assert stats.stddev_samples > 0.0

    def test_replay_is_deterministic(self):
        a = soundness_trial("bincert", QUERY, 0.125, 5, SeedSpec(3))
        b = soundness_trial("bincert", QUERY, 0.125, 5, SeedSpec(3))
        assert a == b


class TestComplexitySweep:
    def test_table_shape_and_ratios(self, seed):
        table = complexity_sweep(["bincert", "estimate"], QUERY, [0.0, 0.5], 3, seed)
        assert len(table.rows) == 4
        assert [r.strategy for r in table.rows] == [
            "bincert",
            "bincert",
            "estimate",
            "estimate",
        ]
        for row in table.rows:
            assert row.baseline_samples == 11_053
            assert row.ratio == pytest.approx(row.baseline_samples / row.mean_samples)
        by_key = {(r.strategy, r.p): r for r in table.rows}
        # estimate always costs exactly the baseline
        assert by_key[("estimate", 0.0)].mean_samples == 11_053.0
        assert by_key[("estimate", 0.0)].ratio == 1.0
        # far from theta the halving strategy is noticeably cheaper
        assert by_key[("bincert", 0.0)].ratio > 5.0

    def test_easy_rates_beat_baseline_by_two_orders(self, seed):
        query = ThresholdQuery(0.01, 0.01, 0.01)
        table = complexity_sweep(["bincert"], query, [0.9], 5, seed)
        assert table.rows[0].baseline_samples == 552_621
        assert table.rows[0].ratio >= 100.0

    def test_hard_rate_runs_the_whole_schedule(self, seed):
        # at p = theta nothing settles early: every refuting call passes and
        # the final call decides, so the cost is exactly the schedule total
        query = ThresholdQuery(0.01, 0.01, 0.01)
        bound = worst_case_budget(query)
        table = complexity_sweep(["bincert"], query, [query.theta], 5, seed)
        mean = table.rows[0].mean_samples
        assert mean == bound.exact_schedule_total
        assert mean >= bound.k3

    def test_csv_round_trip(self, seed):
        table = complexity_sweep(["bincert"], QUERY, [0.0, 0.9], 2, seed)
        text = table.to_csv()
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        assert len(rows) == 2
        assert float(rows[0]["p"]) == 0.0
        assert rows[0]["strategy"] == "bincert"
        assert int(rows[0]["baseline_samples"]) == 11_053

    def test_json_matches_rows(self, seed):
        table = complexity_sweep(["bincert"], QUERY, [0.9], 2, seed)
        doc = json.loads(table.to_json())
        assert doc[0]["p"] == 0.9
        assert doc[0]["mean_samples"] == table.rows[0].mean_samples

    def test_rejects_bad_rate(self, seed):
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [1.1], 2, seed)
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [0.5], 0, seed)

    def test_bad_rate_raises_before_any_draw(self, seed, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(BernoulliOracle, "draw", no_draw)
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [0.5, 1.5], 2, seed)

    def test_replay_is_deterministic(self):
        a = complexity_sweep(["bincert"], QUERY, [0.125], 3, SeedSpec(5))
        b = complexity_sweep(["bincert"], QUERY, [0.125], 3, SeedSpec(5))
        assert a == b

    def test_cells_use_disjoint_streams(self, seed):
        # two cells at the same near-cutoff rate see different randomness
        # because the child-seed counter runs across the whole sweep; a
        # per-cell counter would replay identical runs
        table = complexity_sweep(
            ["bincert", "bincert"], ThresholdQuery(0.3, 0.2, 0.1), [0.62], 1, seed
        )
        assert table.rows[0].mean_samples != table.rows[1].mean_samples
