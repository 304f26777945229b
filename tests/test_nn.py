import json
import math

import numpy as np
import pytest

from quantcert import (
    DimensionMismatchError,
    NonFiniteWeightError,
    ParseError,
    ShapeError,
    forward_batch,
    load_model,
    predict_batch,
)
from quantcert.nn import serialize
from conftest import linear_model_doc


def _doc(layers, input_dim=2):
    return json.dumps({"input_dim": input_dim, "layers": layers})


def _dense(rows, cols, weights, bias):
    return {"kind": "dense", "rows": rows, "cols": cols, "weights": weights, "bias": bias}


# 2 -> 3 -> 2 net with relu in between; small integers keep the hand
# computation exact in float64.
TWO_LAYER = _doc(
    [
        _dense(3, 2, [1, 0, 0, 1, 1, -1], [0, 0, -1]),
        {"kind": "relu"},
        _dense(2, 3, [1, 1, 0, 0, 0, 2], [0.5, 0]),
    ]
)


class TestLoadModel:
    def test_linear_doc(self):
        model = load_model(linear_model_doc(0.25))
        assert model.input_dim == 2
        assert model.output_dim == 2
        layer = model.layers[0]
        assert layer.rows == 2 and layer.cols == 2
        assert not layer.weights.flags.writeable

    def test_activation_kinds(self):
        for kind in ("relu", "sigmoid", "tanh"):
            doc = _doc([_dense(2, 2, [1, 0, 0, 1], [0, 0]), {"kind": kind}])
            model = load_model(doc)
            assert model.layers[1].kind == kind

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            '["top-level array"]',
            '{"layers": []}',
            '{"input_dim": 0, "layers": []}',
            '{"input_dim": 2}',
            '{"input_dim": 2, "layers": 3}',
            _doc(["not a dict"]),
            _doc([{"rows": 2}]),
            _doc([{"kind": "softmax"}]),
            _doc([{"kind": "dense", "rows": 2}]),
            _doc([_dense(0, 2, [], [])]),
            _doc([_dense(2, 2, [1, 2, 3, "x"], [0, 0])]),
        ],
    )
    def test_parse_errors(self, doc):
        with pytest.raises(ParseError):
            load_model(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            # wrong fan-in
            _doc([_dense(2, 3, [0] * 6, [0, 0])]),
            # weight list length mismatch
            _doc([_dense(2, 2, [1, 2, 3], [0, 0])]),
            # bias length mismatch
            _doc([_dense(2, 2, [1, 2, 3, 4], [0])]),
            # single output class
            _doc([_dense(1, 2, [1, 1], [0])]),
            # activations only: output width stays at input_dim
            json.dumps({"input_dim": 1, "layers": [{"kind": "relu"}]}),
        ],
    )
    def test_shape_errors(self, doc):
        with pytest.raises(ShapeError):
            load_model(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights(self, bad):
        doc = _doc([_dense(2, 2, [1, bad, 0, 1], [0, 0])])
        with pytest.raises(NonFiniteWeightError):
            load_model(doc)
        doc = _doc([_dense(2, 2, [1, 0, 0, 1], [bad, 0])])
        with pytest.raises(NonFiniteWeightError):
            load_model(doc)

    def test_round_trip_is_byte_identical(self):
        text = serialize(load_model(TWO_LAYER))
        assert serialize(load_model(text)) == text

    def test_round_trip_preserves_values(self):
        model = load_model(TWO_LAYER)
        again = load_model(serialize(model))
        assert again.input_dim == model.input_dim
        np.testing.assert_array_equal(again.layers[0].weights, model.layers[0].weights)
        np.testing.assert_array_equal(again.layers[2].bias, model.layers[2].bias)


class TestForward:
    def test_hand_computed_logits(self):
        model = load_model(TWO_LAYER)
        # x = (2, 3): dense -> (2, 3, -2), relu -> (2, 3, 0),
        # dense -> (2 + 3 + 0.5, 0) = (5.5, 0)
        np.testing.assert_array_equal(forward_batch(model, [[2.0, 3.0]]), [[5.5, 0.0]])

    def test_sigmoid_and_tanh(self):
        doc = _doc([_dense(2, 2, [1, 0, 0, 1], [0, 0]), {"kind": "sigmoid"}])
        out = forward_batch(load_model(doc), [[0.0, 100.0]])[0]
        assert out[0] == 0.5
        assert out[1] == pytest.approx(1.0)
        doc = _doc([_dense(2, 2, [1, 0, 0, 1], [0, 0]), {"kind": "tanh"}])
        np.testing.assert_allclose(
            forward_batch(load_model(doc), [[0.0, 1.0]]), [[0.0, math.tanh(1.0)]]
        )

    def test_batch_matches_single(self):
        model = load_model(TWO_LAYER)
        rng = np.random.default_rng(7)
        points = rng.uniform(-2.0, 2.0, size=(40, 2))
        batch = forward_batch(model, points)
        for row, expected in zip(points, batch):
            np.testing.assert_array_equal(forward_batch(model, row[None])[0], expected)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("writeable", [False, True])
    def test_activation_first_leaves_points_alone(self, kind, writeable):
        model = load_model(_doc([{"kind": kind}, _dense(2, 2, [1, 0, 0, 1], [0, 0])]))
        points = np.array([[-1.0, 2.0], [0.5, -3.0]])
        points.flags.writeable = writeable
        before = points.copy()
        out = forward_batch(model, points)
        assert np.array_equal(points, before)
        assert not np.shares_memory(out, points)

    def test_dimension_mismatch(self):
        model = load_model(TWO_LAYER)
        with pytest.raises(DimensionMismatchError):
            forward_batch(model, [[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            forward_batch(model, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            forward_batch(model, np.zeros(2))


class TestPredict:
    def test_linear_boundary(self):
        model = load_model(linear_model_doc(0.5))
        labels = predict_batch(model, np.array([[0.4, 0.9], [0.6, 0.1], [0.5, 0.5]]))
        # exactly on the boundary both logits are 0; ties go to class 0
        assert labels.tolist() == [0, 1, 0]

    def test_batch_matches_single(self):
        model = load_model(linear_model_doc(0.5))
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, 1.0, size=(100, 2))
        labels = predict_batch(model, points)
        assert labels.tolist() == [predict_batch(model, row[None])[0] for row in points]
