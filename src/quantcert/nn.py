"""Minimal feedforward classifier loaded from a JSON description.

The on-disk format is a single object:

    {"input_dim": d,
     "layers": [{"kind": "dense", "rows": r, "cols": c,
                 "weights": [r*c numbers, row-major], "bias": [r numbers]},
                {"kind": "relu" | "sigmoid" | "tanh"},
                ...]}

Evaluation is plain float64 affine maps and activations; predicted class is
the argmax of the final layer, ties resolved to the lowest index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .core import OutOfRangeError, _check_int

_ACTIVATIONS = ("relu", "sigmoid", "tanh")


@dataclass(frozen=True, eq=False)
class DenseLayer:
    rows: int
    cols: int
    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class ActivationLayer:
    kind: str


Layer = Union[DenseLayer, ActivationLayer]


@dataclass(frozen=True, eq=False)
class Model:
    input_dim: int
    layers: Tuple[Layer, ...]


def _as_float_array(values, count: int, what: str) -> np.ndarray:
    """count finite JSON numbers, never true, false or "1e3", as a read-only array.

    A layer can hold hundreds of thousands of weights, so the types are
    screened in one pass, not per entry, and np.fromiter converts the
    screened list, to the bits np.asarray gives but in about 2/3 the time.
    """
    if not isinstance(values, list) or len(values) != count:
        raise OutOfRangeError(f"{what} must be a list of {count} numbers")
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise OutOfRangeError(f"{what} holds a non-numeric entry: {bad!r}")
    try:
        arr = np.fromiter(values, np.float64, count)
    except OverflowError:
        raise OutOfRangeError(f"{what} holds an integer too large for a float") from None
    if not np.all(np.isfinite(arr)):
        raise OutOfRangeError(f"{what} holds a NaN or infinite value")
    arr.flags.writeable = False
    return arr


def load_model(doc: Union[str, bytes]) -> Model:
    """Parse and validate a model document.

    input_dim, rows and cols must be JSON integers of at least 1 (checked
    by core._check_int, so a missing one, true or 1.5 fails), and weights
    and biases finite JSON numbers.  Raises OutOfRangeError for these, for
    malformed JSON, unknown layer kinds and inconsistent dimensions (an
    output narrower than two classes included).
    """
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise OutOfRangeError(f"model document is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise OutOfRangeError("model document must be a JSON object")
    input_dim = _check_int("input_dim", data.get("input_dim"), 1)
    raw_layers = data.get("layers")
    if not isinstance(raw_layers, list):
        raise OutOfRangeError("layers must be a list")

    layers = []
    width = input_dim
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise OutOfRangeError(f"layer {i} must be an object with a 'kind'")
        kind = entry["kind"]
        if kind == "dense":
            rows = _check_int(f"dense layer {i} rows", entry.get("rows"), 1)
            cols = _check_int(f"dense layer {i} cols", entry.get("cols"), 1)
            if cols != width:
                raise OutOfRangeError(
                    f"dense layer {i} consumes {cols} features but receives {width}"
                )
            flat = _as_float_array(entry.get("weights"), rows * cols, f"layer {i} weights")
            weights = flat.reshape(rows, cols)
            weights.flags.writeable = False
            bias = _as_float_array(entry.get("bias"), rows, f"layer {i} bias")
            layers.append(DenseLayer(rows=rows, cols=cols, weights=weights, bias=bias))
            width = rows
        elif kind in _ACTIVATIONS:
            layers.append(ActivationLayer(kind=kind))
        else:
            raise OutOfRangeError(f"layer {i} has unknown kind {kind!r}")

    if width < 2:
        raise OutOfRangeError(f"final output dimension must be at least 2, got {width}")
    return Model(input_dim=input_dim, layers=tuple(layers))


def forward_batch(model: Model, points: np.ndarray) -> np.ndarray:
    """Evaluate the net on a (n, input_dim) batch; returns its (n, k) logits."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise OutOfRangeError(
            f"expected a (n, {model.input_dim}) batch, got shape {x.shape}"
        )
    # An activation overwrites the array the layer before it made; until a
    # layer has made one (out is None), it allocates, so the caller's points
    # are never written to.
    out = None
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            x = x @ layer.weights.T
            x += layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=out)
        elif layer.kind == "sigmoid":
            # Imported here, as only sigmoid layers need scipy.special.
            from scipy.special import expit

            x = expit(x, out=out)
        else:
            x = np.tanh(x, out=out)
        out = x
    return x


def predict_batch(model: Model, points: np.ndarray) -> np.ndarray:
    """Predicted class per row; argmax breaks ties toward the lowest index."""
    return np.argmax(forward_batch(model, points), axis=1)

