import json
import math
import re

import numpy as np
import pytest

from quantcert import OutOfRangeError, load_model
from quantcert.nn import forward_batch, predict_batch
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
        layer = model.layers[0]
        assert layer.rows == 2 and layer.cols == 2
        assert not layer.weights.flags.writeable

    def test_activation_kinds(self):
        for kind in ("relu", "sigmoid", "tanh"):
            doc = _doc([_dense(2, 2, [1, 0, 0, 1], [0, 0]), {"kind": kind}])
            model = load_model(doc)
            assert model.layers[1] == kind

    @pytest.mark.parametrize(
        "doc,message",
        [
            # Each existing case keeps the id its document alone once gave.
            pytest.param(doc, message, id=doc) for doc, message in [
                ("not json", "model document is not valid JSON"),
                ('["top-level array"]', "model document must be a JSON object"),
                ('{"layers": []}', "input_dim must be an integer of at least 1, got None"),
                ('{"input_dim": 0, "layers": []}',
                 "input_dim must be an integer of at least 1, got 0"),
                ('{"input_dim": 2}', "layers must be a list"),
                ('{"input_dim": 2, "layers": 3}', "layers must be a list"),
                (_doc(["not a dict"]), "layer 0 must be an object with a 'kind'"),
                (_doc([{"rows": 2}]), "layer 0 must be an object with a 'kind'"),
                (_doc([{"kind": "softmax"}]), "layer 0 has unknown kind 'softmax'"),
                (_doc([{"kind": "dense", "rows": 2}]),
                 "dense layer 0 cols must be an integer of at least 1, got None"),
                (_doc([_dense(0, 2, [], [])]),
                 "dense layer 0 rows must be an integer of at least 1, got 0"),
                (_doc([_dense(2, 2, [1, 2, 3, "x"], [0, 0])]),
                 "layer 0 weights holds a non-numeric entry: 'x'"),
            ]
        ] + [
            # A bool is not a count, and only a JSON number is a weight: each
            # of these once loaded as some other network or escaped untyped.
            pytest.param(_doc([], input_dim=True),
                         "input_dim must be an integer of at least 1, got True",
                         id="input-dim-true"),
            pytest.param(_doc([_dense(True, 2, [1, 0], [0])]),
                         "dense layer 0 rows must be an integer of at least 1, got True",
                         id="rows-true"),
            pytest.param(_doc([_dense(2, True, [1, 0], [0, 0])]),
                         "dense layer 0 cols must be an integer of at least 1, got True",
                         id="cols-true"),
            pytest.param(_doc([_dense(2, 2, ["1e3", 0, 0, 1], [0, 0])]),
                         "layer 0 weights holds a non-numeric entry: '1e3'",
                         id="string-weight"),
            pytest.param(_doc([_dense(2, 2, [True, 0, 0, 1], [0, 0])]),
                         "layer 0 weights holds a non-numeric entry: True",
                         id="bool-weight"),
            pytest.param(_doc([_dense(2, 2, [10**400, 0, 0, 1], [0, 0])]),
                         "layer 0 weights holds an integer too large for a float",
                         id="huge-int-weight"),
        ],
    )
    def test_parse_errors(self, doc, message):
        with pytest.raises(OutOfRangeError, match=re.escape(message)):
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
        shape = (r"consumes \d+ features but receives|must be a list of \d+ numbers"
                 r"|final output dimension must be at least 2")
        with pytest.raises(OutOfRangeError, match=shape):
            load_model(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights(self, bad):
        doc = _doc([_dense(2, 2, [1, bad, 0, 1], [0, 0])])
        with pytest.raises(OutOfRangeError, match="holds a NaN or infinite value"):
            load_model(doc)
        doc = _doc([_dense(2, 2, [1, 0, 0, 1], [bad, 0])])
        with pytest.raises(OutOfRangeError, match="holds a NaN or infinite value"):
            load_model(doc)


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
        with pytest.raises(OutOfRangeError, match=r"expected a \(n, 2\) batch"):
            forward_batch(model, [[1.0, 2.0, 3.0]])
        with pytest.raises(OutOfRangeError, match=r"expected a \(n, 2\) batch"):
            forward_batch(model, np.zeros((4, 3)))
        with pytest.raises(OutOfRangeError, match=r"expected a \(n, 2\) batch"):
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
