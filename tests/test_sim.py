import csv
import dataclasses
import io
import json

import pytest

import quantcert.sim as sim_module
from quantcert import OutOfRangeError, ThresholdQuery
from quantcert.sim import complexity_sweep
from quantcert.strategy import schedule, schedule_law, worst_case_budget


QUERY = ThresholdQuery(0.1, 0.05, 0.1)


def _row(strategy, query, p, **kwargs):
    (row,) = complexity_sweep([strategy], query, [p], **kwargs).rows
    return row


class TestVerdictColumns:
    """The verdict columns of a row: exact probabilities against a known rate."""

    def test_zero_rate_always_certifies(self):
        row = _row("bincert", QUERY, 0.0)
        assert row.p_yes == 1.0
        assert row.p_no == row.p_inconclusive == 0.0
        assert row.p_wrong == 0.0
        # one call settles every run, so the cost is certain
        assert row.mean_samples == row.median_samples == 29.0
        assert row.stddev_samples == 0.0

    def test_high_rate_always_refutes(self):
        row = _row("bincert", QUERY, 0.9)
        assert row.p_no == pytest.approx(1.0, abs=1e-12)
        assert row.p_wrong < 1e-12

    def test_in_band_rate_has_no_failure_notion(self):
        row = _row("bincert", QUERY, 0.125)
        assert row.p_wrong is None
        assert row.p_yes + row.p_no + row.p_inconclusive == pytest.approx(1.0)
        assert 0.0 < row.p_yes < 1.0

    def test_band_edges_carry_guarantees(self):
        # the band is open: p exactly at theta counts as a must-yes and p
        # exactly at theta + eta as a must-no; p just inside either edge
        # carries no guarantee
        rates = [QUERY.theta, QUERY.theta + 1e-6, QUERY.upper - 1e-6, QUERY.upper]
        at_theta, above, below, at_upper = complexity_sweep(["bincert"], QUERY, rates).rows
        assert at_theta.p_wrong == at_theta.p_no + at_theta.p_inconclusive
        assert at_upper.p_wrong == at_upper.p_yes + at_upper.p_inconclusive
        assert above.p_wrong is None and below.p_wrong is None
        assert 0.0 < at_theta.p_wrong <= QUERY.delta
        assert 0.0 < at_upper.p_wrong <= QUERY.delta

    def test_inconclusive_counts_as_failure_outside_band(self):
        row = _row("bincert", QUERY, 0.0, max_samples=1)
        assert row.p_inconclusive == 1.0
        assert row.p_wrong == 1.0
        assert row.mean_samples == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRangeError):
            _row("bincert", QUERY, 1.5)
        with pytest.raises(OutOfRangeError, match="max_samples"):
            _row("bincert", QUERY, 0.5, max_samples=-1)
        with pytest.raises(OutOfRangeError, match="strategy must be "):
            _row("magic", QUERY, 0.5)
        with pytest.raises(OutOfRangeError, match="p_grid must be a list of rates, got 0.5"):
            complexity_sweep(["bincert"], QUERY, 0.5)
        with pytest.raises(OutOfRangeError, match="strategies must be a list of names, got None"):
            complexity_sweep(None, QUERY, [0.5])

    def test_replay_is_deterministic(self):
        assert _row("bincert", QUERY, 0.125) == _row("bincert", QUERY, 0.125)

    def test_wide_band_errs_at_most_delta(self):
        # Chernoff sizes broke delta here (p_wrong 0.00926 and 0.00853 at
        # theta), where eta1 > theta1 put the upper bound outside its range
        query = ThresholdQuery(0.003, 0.35, 0.005)
        table = complexity_sweep(["bincert", "fixedcert"], query, [0.003, query.upper])
        assert [row.p_wrong for row in table.rows] == pytest.approx(
            [1.65e-3, 1.97e-3, 1.49e-3, 2.90e-3], rel=0.01)
        assert all(row.p_wrong <= query.delta for row in table.rows)

    def test_band_edge_errors_of_the_tight_query(self):
        # bench's bern-tight query: both edges err within delta, at about
        # half of it
        tight = ThresholdQuery(0.1, 2e-3, 0.01)
        at_theta, at_upper = complexity_sweep(["bincert"], tight, [0.1, tight.upper]).rows
        assert at_theta.p_wrong == pytest.approx(5.01e-3, rel=0.01)
        assert at_upper.p_wrong == pytest.approx(5.02e-3, rel=0.01)


class TestComplexitySweep:
    def test_table_shape_and_ratios(self):
        table = complexity_sweep(["bincert", "estimate"], QUERY, [0.0, 0.5])
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
        assert by_key[("estimate", 0.0)].stddev_samples == 0.0
        assert by_key[("estimate", 0.0)].ratio == 1.0
        # far from theta the halving strategy is noticeably cheaper
        assert by_key[("bincert", 0.0)].ratio > 5.0

    def test_mean_cost_near_the_threshold(self):
        row = _row("bincert", QUERY, 0.02)
        assert row.mean_samples == pytest.approx(310.55, abs=0.01)

    def test_easy_rates_beat_baseline_by_two_orders(self):
        query = ThresholdQuery(0.01, 0.01, 0.01)
        row = _row("bincert", query, 0.9)
        assert row.baseline_samples == 552_621
        assert row.ratio >= 100.0

    def test_hard_rate_runs_the_whole_schedule(self):
        # at p = theta a run can pass every refuting call and reach the
        # final one, so the largest possible cost is the largest call
        query = ThresholdQuery(0.01, 0.01, 0.01)
        bound = worst_case_budget(query)
        law = schedule_law(schedule("bincert", query)[1], query.theta)
        largest = max(total for total, _ in law.samples)
        assert largest == bound.exact_schedule_total == 3_905
        assert largest <= bound.k3  # the final call's closed form
        assert _row("bincert", query, query.theta).mean_samples <= largest

    def test_csv_round_trip(self):
        table = complexity_sweep(["bincert"], QUERY, [0.0, 0.125])
        text = table.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert float(rows[0]["p"]) == 0.0
        assert rows[0]["strategy"] == "bincert"
        assert int(rows[0]["baseline_samples"]) == 11_053
        assert float(rows[1]["p_yes"]) == table.rows[1].p_yes
        assert rows[1]["p_wrong"] == ""  # inside the band

    def test_free_runs_have_no_ratio(self):
        # A run capped at 0 samples spends nothing: the ratio is undefined,
        # and the JSON must stay JSON (no Infinity) and the CSV cell empty.
        table = complexity_sweep(["bincert", "estimate"], QUERY, [0.0], max_samples=0)
        assert [row.ratio for row in table.rows] == [None, None]

        def no_constants(name):
            raise AssertionError(f"not JSON: {name}")

        doc = json.loads(table.to_json(), parse_constant=no_constants)
        assert [row["ratio"] for row in doc] == [None, None]
        assert [row["ratio"] for row in csv.DictReader(io.StringIO(table.to_csv()))] == ["", ""]

    def test_json_matches_rows(self):
        table = complexity_sweep(["bincert", "fixedcert"], QUERY, [0.125, 0.9])
        doc = json.loads(table.to_json())
        assert doc == [dataclasses.asdict(row) for row in table.rows]
        assert doc[0]["p_wrong"] is None

    def test_rejects_bad_rate(self):
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [1.1])
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [float("nan")])

    def test_bad_rate_raises_before_any_draw(self, monkeypatch):
        def no_law(*args, **kwargs):
            raise AssertionError("computed a row before checking the arguments")

        monkeypatch.setattr(sim_module, "schedule_law", no_law)
        with pytest.raises(OutOfRangeError):
            complexity_sweep(["bincert"], QUERY, [0.5, 1.5])
        with pytest.raises(OutOfRangeError, match="strategy must be .*, got 'magic'"):
            complexity_sweep(["bincert", "magic"], QUERY, [0.5])

    @pytest.mark.parametrize("strategies", ["bincert", ""])
    def test_a_bare_string_is_not_a_strategy_list(self, strategies, monkeypatch):
        # Read name by name, "bincert" would fail as the strategy 'b'.
        monkeypatch.setattr(sim_module, "schedule_law", None)
        message = f"strategies must be a list of names, got '{strategies}'"
        with pytest.raises(OutOfRangeError, match=message):
            complexity_sweep(strategies, QUERY, [0.5])

    @pytest.mark.parametrize("strategies, p_grid, message", [
        ([], [0.5], "strategies must be nonempty"),
        (["bincert"], [], "p_grid must be nonempty"),
    ])
    def test_empty_lists_are_out_of_range(self, strategies, p_grid, message):
        # An empty table would read as a study that found nothing.
        with pytest.raises(OutOfRangeError, match=message):
            complexity_sweep(strategies, QUERY, p_grid)

    def test_replay_is_deterministic(self):
        a = complexity_sweep(["bincert"], QUERY, [0.125])
        b = complexity_sweep(["bincert"], QUERY, [0.125])
        assert a == b
