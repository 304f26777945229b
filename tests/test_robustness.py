import itertools
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantcert import (
    OutOfRangeError,
    SeedSpec,
    ThresholdQuery,
    adversarial_hardness,
    certify_density,
    make_sampler,
    misclassification_property,
)
from quantcert.nn import predict_batch
from quantcert.robustness import L2BallSampler, LinfBallSampler, ProbeRecord
import quantcert.oracle as oracle_module
import quantcert.robustness as robustness
from quantcert.core import to_unit
from quantcert.robustness import _normalize_grid
from conftest import linear_model


def _center(d, faces, root):
    """A center in the unit box; with faces, a third of it at 0 and a quarter at 1."""
    center = to_unit(SeedSpec(root).raw_block(0, 1, d))[0]
    if faces:
        center[::3] = 0.0
        center[1::4] = 1.0
    return center


# A window anywhere in the stream, on centers inside the box or on its faces.
WINDOW_ARGS = dict(
    d=st.sampled_from([1, 2, 7, 784, 785]),
    faces=st.booleans(),
    root=st.integers(0, 2**63 - 1),
    start=st.integers(0, 10**6),
    count=st.integers(0, 40),
)


DENSITY_QUERY = ThresholdQuery(0.1, 0.05, 0.05)


class TestMakeSampler:
    def test_dispatch(self, center2):
        assert isinstance(make_sampler("linf", center2, 0.1), LinfBallSampler)
        assert isinstance(make_sampler("l2", center2, 0.1), L2BallSampler)

    def test_unknown_norm(self, center2):
        # A norm that is not a string, hashable or not, is out of range too.
        for norm in ("l1", ["linf"], None):
            with pytest.raises(OutOfRangeError, match=r"^norm must be 'linf' or 'l2', got "):
                make_sampler(norm, center2, 0.1)

    @pytest.mark.parametrize("norm, cls", list(robustness.SAMPLERS.items()))
    def test_table_entry_names_the_ball(self, seed, center2, norm, cls):
        sampler = make_sampler(norm, center2, 0.1)
        assert type(sampler) is cls and cls.norm == norm
        report = certify_density(linear_model(0.62), center2, DENSITY_QUERY, seed, 0.1, norm)
        assert report.config["norm"] == norm
        assert report.notes[-1] == cls.note

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_negative_zero_center_is_stored_as_zero(self, norm):
        center = make_sampler(norm, [-0.0, 0.5], 0.1).center
        np.testing.assert_array_equal(center, [0.0, 0.5])
        assert not np.any(np.signbit(center))

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_negative_zero_center_replays_as_zero(self, seed, norm):
        # Both centers draw the same points, so their reports match byte for byte.
        negative, positive = (
            certify_density(
                linear_model(0.62), np.array([zero, 0.5]), DENSITY_QUERY, seed, 0.1, norm
            ).canonical_json()
            for zero in (-0.0, 0.0)
        )
        assert negative == positive

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
    def test_rejects_bad_radius(self, center2, norm, eps):
        with pytest.raises(OutOfRangeError):
            make_sampler(norm, center2, eps)


class TestLinfBallSampler:
    def test_clipped_bounds(self):
        sampler = LinfBallSampler(np.array([0.05, 0.5, 0.98]), 0.1)
        np.testing.assert_array_equal(sampler.lo, [0.0, 0.5 - 0.1, 0.98 - 0.1])
        np.testing.assert_array_equal(sampler.hi, [0.05 + 0.1, 0.5 + 0.1, 1.0])
        assert sampler.dimension == 3

    def test_samples_stay_in_clipped_box(self, seed):
        sampler = LinfBallSampler(np.array([0.05, 0.5, 0.98]), 0.1)
        points = sampler.batch(seed, 0, 5000)
        assert points.shape == (5000, 3)
        assert np.all(points >= sampler.lo) and np.all(points <= sampler.hi)

    def test_windows_are_consistent(self, seed, center2):
        sampler = LinfBallSampler(center2, 0.2)
        whole = sampler.batch(seed, 0, 100)
        split = np.vstack(
            [sampler.batch(seed, 0, 60), sampler.batch(seed, 60, 40)]
        )
        np.testing.assert_array_equal(whole, split)

    def test_mean_sits_at_center(self, seed, center2):
        points = LinfBallSampler(center2, 0.2).batch(seed, 0, 100_000)
        np.testing.assert_allclose(points.mean(axis=0), center2, atol=3e-3)

    @pytest.mark.parametrize("d", [784, 785])
    def test_matches_reference_affine_map(self, d):
        # The in-place map must equal lo + u * (hi - lo) bit for bit.
        center = np.random.default_rng(d).uniform(0.0, 1.0, d)
        sampler = LinfBallSampler(center, 0.1)
        lo = np.maximum(0.0, center - 0.1)
        hi = np.minimum(1.0, center + 0.1)
        spec = SeedSpec(5)
        for start, count in ((0, 7), (31, 5)):
            u = to_unit(spec.raw_block(start, count, d))
            points = sampler.batch(spec, start, count)
            assert points.tobytes() == (lo + u * (hi - lo)).tobytes()

    @settings(max_examples=60, deadline=None)
    # Spans of 1e-300 and less, at a face, give subnormal products.
    @given(
        eps=st.one_of(st.floats(1e-6, 2.0), st.sampled_from([1e-300, 2.0**-1000, 5e-324])),
        **WINDOW_ARGS,
    )
    def test_matches_two_step_map(self, d, faces, eps, root, start, count):
        center = _center(d, faces, root)
        lo = np.maximum(0.0, center - eps)
        span = np.minimum(1.0, center + eps) - lo
        words = SeedSpec(root).raw_block(start, count, d)
        points = LinfBallSampler(center, eps).batch(SeedSpec(root), start, count)
        assert points.tobytes() == (to_unit(words) * span + lo).tobytes()

    @pytest.mark.parametrize(
        "center",
        [np.array([1.2, 0.5]), np.array([-0.1, 0.5]), np.array([np.nan, 0.5])],
    )
    def test_rejects_bad_center(self, center):
        with pytest.raises(OutOfRangeError):
            LinfBallSampler(center, 0.1)

    def test_rejects_bad_epsilon(self, center2):
        with pytest.raises(OutOfRangeError):
            LinfBallSampler(center2, 0.0)

    def test_rejects_bad_center_shape(self):
        with pytest.raises(OutOfRangeError):
            LinfBallSampler(np.zeros((2, 2)), 0.1)


class TestL2BallSampler:
    def test_samples_stay_in_ball(self, seed):
        center = np.full(8, 0.5)
        sampler = L2BallSampler(center, 0.3)
        points = sampler.batch(seed, 0, 20_000)
        shift = np.linalg.norm(points - center, axis=1)
        assert np.all(shift <= 0.3 * (1.0 + 1e-12))

    def test_radius_distribution(self, seed):
        # r^d is uniform for a d-ball; the mean of (r/eps)^d sits at 1/2
        d = 8
        center = np.full(d, 0.5)
        points = L2BallSampler(center, 0.3).batch(seed, 0, 50_000)
        u = (np.linalg.norm(points - center, axis=1) / 0.3) ** d
        assert abs(u.mean() - 0.5) < 4e-3

    def test_clipping_keeps_ball_membership(self, seed):
        center = np.array([0.05, 0.05])
        sampler = L2BallSampler(center, 0.2)
        points = sampler.batch(seed, 0, 10_000)
        assert np.all(points >= 0.0) and np.all(points <= 1.0)
        shift = np.linalg.norm(points - center, axis=1)
        assert np.all(shift <= 0.2 * (1.0 + 1e-12))

    def test_one_dimensional_ball(self, seed):
        sampler = L2BallSampler(np.array([0.5]), 0.2)
        points = sampler.batch(seed, 0, 2000)
        assert np.all(np.abs(points - 0.5) <= 0.2)
        # both directions show up
        assert np.any(points > 0.5) and np.any(points < 0.5)

    # eps up to 40 puts most coordinates of a 784-d point outside the box.
    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(1e-6, 40.0), **WINDOW_ARGS)
    def test_matches_out_of_place_reference(self, d, faces, eps, root, start, count):
        from scipy.special import ndtri

        center = _center(d, faces, root)
        words = SeedSpec(root).raw_block(start, count, d + 1)
        normals = ndtri(((words[:, :d] >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52)
        norms = np.linalg.norm(normals, axis=1)
        assert np.all(norms > 0.0)
        directions = normals / norms[:, None]
        u = (words[:, d] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        radii = eps * u ** (1.0 / d)
        expected = np.clip(center + radii[:, None] * directions, 0.0, 1.0)
        points = L2BallSampler(center, eps).batch(SeedSpec(root), start, count)
        assert points.tobytes() == expected.tobytes()

    def test_windows_are_consistent(self, seed, center2):
        sampler = L2BallSampler(center2, 0.2)
        whole = sampler.batch(seed, 0, 90)
        split = np.vstack(
            [sampler.batch(seed, 0, 50), sampler.batch(seed, 50, 40)]
        )
        np.testing.assert_array_equal(whole, split)


class TestMisclassificationProperty:
    def test_reference_comes_from_center(self, center2):
        model = linear_model(0.7)
        prop = misclassification_property(model, center2)
        assert prop.reference_label == predict_batch(model, center2[None])[0] == 0
        assert prop.batch(np.array([center2, [0.9, 0.5]])).tolist() == [False, True]

    def test_batch_matches_scalar(self, seed, center2):
        model = linear_model(0.55)
        prop = misclassification_property(model, center2)
        points = LinfBallSampler(center2, 0.2).batch(seed, 0, 200)
        flags = prop.batch(points)
        assert flags.tolist() == [prop.batch(row[None])[0] for row in points]

    def test_dimension_mismatch(self):
        with pytest.raises(OutOfRangeError, match=r"x0 has shape \(3,\), model expects \(2,\)"):
            misclassification_property(linear_model(0.5), np.zeros(3))

    @pytest.mark.parametrize("x0", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 0.5]])
    def test_non_finite_x0_is_rejected_before_the_model_runs(self, x0):
        # NaN logits have an argmax too; the check comes before any matmul.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="x0 coordinates must be finite"):
                misclassification_property(linear_model(0.5), np.array(x0))

    @pytest.mark.parametrize("label", [1.7, 1.0, True, -1, "1", None])
    def test_reference_label_is_a_nonnegative_integer(self, label):
        with pytest.raises(OutOfRangeError, match="reference_label"):
            robustness.MisclassificationProperty(linear_model(0.5), label)
        prop = robustness.MisclassificationProperty(linear_model(0.5), np.int64(1))
        assert prop.reference_label == 1 and type(prop.reference_label) is int


class TestCertifyDensity:
    @pytest.mark.parametrize(
        "center, eps, norm",
        [
            (np.array([0.5, 0.5]), -0.1, "linf"),
            (np.array([0.5, 0.5]), 0.1, "l7"),
            (np.array([2.0, 0.5]), 0.1, "linf"),
        ],
        ids=["negative-eps", "bad-norm", "center-off-box"],
    )
    def test_validates_ball(self, seed, center, eps, norm):
        with pytest.raises(OutOfRangeError):
            certify_density(linear_model(0.62), center, DENSITY_QUERY, seed, eps, norm)

    def test_numpy_radius_is_stored_as_a_float(self, seed, center2):
        report = certify_density(
            linear_model(0.62), center2, DENSITY_QUERY, seed, np.float32(0.05)
        )
        assert report.verdict.kind == "yes"
        assert type(report.config["epsilon"]) is float
        assert json.loads(report.canonical_json())["config"]["epsilon"] == float(np.float32(0.05))

    def test_zero_density_certifies_yes(self, seed, center2):
        # boundary at 0.62 sits outside the eps-box, so no sample flips
        report = certify_density(linear_model(0.62), center2, DENSITY_QUERY, seed, 0.1)
        assert report.verdict.kind == "yes"
        assert report.config["norm"] == "linf"
        assert report.config["reference_label"] == 0
        assert any("exact on the clipped box" in note for note in report.notes)

    def test_high_density_certifies_no(self, seed, center2):
        # boundary at 0.45: three quarters of the box flips labels
        report = certify_density(linear_model(0.45), center2, DENSITY_QUERY, seed, 0.1)
        assert report.verdict.kind == "no"

    def test_l2_report_discloses_clipping(self, seed, center2):
        report = certify_density(
            linear_model(0.62), center2, DENSITY_QUERY, seed, 0.1, norm="l2"
        )
        assert report.verdict.kind == "yes"
        assert any("clipped" in note for note in report.notes)

    def test_strategy_dispatch(self, seed, center2):
        report = certify_density(
            linear_model(0.62), center2, DENSITY_QUERY, seed, 0.1, strategy="fixedcert"
        )
        assert report.strategy == "fixedcert"
        assert report.verdict.kind == "yes"

    def test_center_dimension_must_match_model(self, seed, monkeypatch):
        def no_words(*args, **kwargs):
            raise AssertionError("sampled before the dimension check")

        monkeypatch.setattr(SeedSpec, "raw_block", no_words)
        with pytest.raises(OutOfRangeError, match=r"x0 has shape \(3,\), model expects \(2,\)"):
            certify_density(linear_model(0.62), np.full(3, 0.5), DENSITY_QUERY, seed, 0.1)

    def test_canonical_report_ignores_batch_size(self, monkeypatch, center2):
        # The oracle certify_density builds draws BATCH_WORDS // d trials at a time.
        blobs = set()
        for words in (oracle_module.BATCH_WORDS, 2 * 64, 2 * 512):
            monkeypatch.setattr(oracle_module, "BATCH_WORDS", words)
            report = certify_density(
                linear_model(0.55), center2, DENSITY_QUERY, SeedSpec(424242), 0.1
            )
            blobs.add(report.canonical_json())
        assert len(blobs) == 1


class TestNormalizeGrid:
    def test_explicit_grid_passthrough(self):
        assert _normalize_grid([0.1, 0.2, 0.4]) == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize(
        "grid",
        [
            [],
            [0.1, 0.1],
            [0.2, 0.1],
            [-0.1, 0.2],
            [0.0, 0.2],
            [0.1, math.nan],
            [0.1, math.inf],
        ],
        ids=["empty", "repeat", "decreasing", "negative", "zero", "nan", "inf"],
    )
    def test_rejects_bad_grids(self, grid):
        with pytest.raises(OutOfRangeError):
            _normalize_grid(grid)


HARDNESS_QUERY = ThresholdQuery(1e-3, 1e-3, 0.05)
GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


def _two_loop_search(verdicts, method):
    """Reference: hardness search as two loops, one per method.

    Answers the grid indices probed, in order, and the hardness index, None
    when the smallest radius is not a yes.
    """
    probed = []

    def probe(k):
        probed.append(k)
        return verdicts[k]

    yes_idx = -1
    if method == "sweep":
        while yes_idx + 1 < len(verdicts) and probe(yes_idx + 1) == "yes":
            yes_idx += 1
    else:
        no_idx = len(verdicts) - 1
        if probe(no_idx) == "yes":
            yes_idx = no_idx
        while no_idx - yes_idx > 1:
            mid = (yes_idx + no_idx) // 2
            if probe(mid) == "yes":
                yes_idx = mid
            else:
                no_idx = mid
    return probed, (None if yes_idx < 0 else yes_idx)


class TestAdversarialHardness:
    # boundary at 0.7: the density around (0.5, 0.5) is exactly zero up to
    # eps = 0.2 and jumps to 0.1 at eps = 0.25

    def test_sweep(self, seed, center2):
        result = adversarial_hardness(
            linear_model(0.7),
            center2,
            HARDNESS_QUERY,
            seed,
            eps_grid=GRID,
            method="sweep",
        )
        assert result.hardness == 0.2
        assert result.method == "sweep"
        assert [p.verdict for p in result.probe_log] == ["yes"] * 4 + ["no"]
        assert result.total_samples == sum(p.total_samples for p in result.probe_log)

    def test_bisect_agrees_with_sweep(self, seed, center2):
        result = adversarial_hardness(
            linear_model(0.7),
            center2,
            HARDNESS_QUERY,
            seed,
            eps_grid=GRID,
            method="bisect",
        )
        assert result.hardness == 0.2
        assert result.method == "bisect"
        probed = [p.epsilon for p in result.probe_log]
        assert probed == [0.3, 0.15, 0.2, 0.25]

    def test_a_radius_reports_the_same_under_either_method(self, seed, center2, monkeypatch):
        # Each probe's seed comes from its grid index, so a radius both
        # searches reach gives the same report, byte for byte, and so the
        # same verdict and samples; 0.25, past the boundary, is a no.
        grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
        reports = {}

        def spy(*args, _certify=robustness.certify_density, **kwargs):
            report = _certify(*args, **kwargs)
            reports[method, args[4]] = report.canonical_json()
            return report

        monkeypatch.setattr(robustness, "certify_density", spy)
        logs = {}
        for method in ("sweep", "bisect"):
            result = adversarial_hardness(
                linear_model(0.7), center2, HARDNESS_QUERY, seed, eps_grid=grid, method=method
            )
            logs[method] = {p.epsilon: (p.verdict, p.total_samples) for p in result.probe_log}
        shared = sorted(logs["sweep"].keys() & logs["bisect"].keys())
        assert shared == [0.15, 0.2, 0.25]
        assert logs["bisect"][0.25][0] == "no"
        for e in shared:
            assert logs["sweep"][e] == logs["bisect"][e]
            assert reports["sweep", e] == reports["bisect", e]

    def test_bisect_all_yes_returns_largest(self, seed, center2):
        result = adversarial_hardness(
            linear_model(0.9),
            center2,
            HARDNESS_QUERY,
            seed,
            eps_grid=[0.05, 0.1, 0.15],
            method="bisect",
        )
        assert result.hardness == 0.15
        assert [(p.epsilon, p.verdict) for p in result.probe_log] == [(0.15, "yes")]

    def test_single_point_grid(self, seed, center2):
        for method in ("sweep", "bisect"):
            result = adversarial_hardness(
                linear_model(0.9),
                center2,
                HARDNESS_QUERY,
                seed,
                eps_grid=[0.1],
                method=method,
            )
            assert result.hardness == 0.1
            assert len(result.probe_log) == 1

    @pytest.mark.parametrize("method", ["sweep", "bisect"])
    def test_no_yes_returns_none(self, seed, center2, method):
        # Either log ends at the smallest radius, the probe that decides None.
        probed = {"sweep": [0.25], "bisect": [0.3, 0.25]}[method]
        result = adversarial_hardness(
            linear_model(0.7),
            center2,
            HARDNESS_QUERY,
            seed,
            eps_grid=[0.25, 0.3],
            method=method,
        )
        assert result.hardness is None
        assert result.method == method
        assert [(p.epsilon, p.verdict) for p in result.probe_log] == [
            (e, "no") for e in probed
        ]

    def test_probe_order_matches_the_two_loop_search(self, seed, center2, monkeypatch):
        """Every verdict pattern on grids of 1-7 radii, against the two-loop search.

        sweep makes at most n probes on n radii, bisect at most 1 + ceil(log2 n).
        """
        verdicts = {}
        seeds = []

        def fake_certify(model, x0, query, probe_seed, epsilon, **kwargs):
            seeds.append(probe_seed)
            return SimpleNamespace(
                verdict=SimpleNamespace(kind=verdicts[epsilon]),
                total_samples=round(epsilon * 1000),
            )

        monkeypatch.setattr(robustness, "certify_density", fake_certify)
        for n in range(1, 8):
            grid = [(k + 1) / 1000 for k in range(n)]
            for pattern in itertools.product(("yes", "no", "inconclusive"), repeat=n):
                verdicts.update(zip(grid, pattern))
                for method in ("sweep", "bisect"):
                    probed, found = _two_loop_search(pattern, method)
                    seeds.clear()
                    result = adversarial_hardness(
                        None, center2, HARDNESS_QUERY, seed, eps_grid=grid, method=method
                    )
                    assert result.probe_log == tuple(
                        ProbeRecord(grid[k], pattern[k], k + 1) for k in probed
                    ), (pattern, method)
                    limit = n if method == "sweep" else 1 + math.ceil(math.log2(n))
                    assert len(probed) <= limit, (pattern, method)
                    assert result.hardness == (None if found is None else grid[found])
                    assert seeds == [seed.child(k) for k in probed]

    def test_unknown_method(self, seed, center2):
        with pytest.raises(OutOfRangeError):
            adversarial_hardness(
                linear_model(0.7),
                center2,
                HARDNESS_QUERY,
                seed,
                eps_grid=GRID,
                method="newton",
            )

    def test_non_finite_radius_fails_before_any_probe(self, seed, center2, monkeypatch):
        def no_words(*args, **kwargs):
            raise AssertionError("probed before the grid check")

        monkeypatch.setattr(SeedSpec, "raw_block", no_words)
        for grid in ([0.1, math.nan], 0.02):
            with pytest.raises(OutOfRangeError):
                adversarial_hardness(linear_model(0.7), center2, HARDNESS_QUERY, seed, grid)

    def test_replay_is_deterministic(self, center2):
        runs = [
            adversarial_hardness(
                linear_model(0.7),
                center2,
                HARDNESS_QUERY,
                SeedSpec(7),
                eps_grid=GRID,
                method="sweep",
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
