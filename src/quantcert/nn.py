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

from .core import DimensionMismatchError, QuantCertError


class ParseError(QuantCertError):
    """The model document is not valid JSON of the expected shape."""


class ShapeError(QuantCertError):
    """Layer dimensions are inconsistent with each other or the input."""


class NonFiniteWeightError(QuantCertError):
    """A weight or bias is NaN or infinite."""


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

    @property
    def output_dim(self) -> int:
        width = self.input_dim
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                width = layer.rows
        return width


def _as_float_array(values, count: int, what: str) -> np.ndarray:
    if not isinstance(values, list) or len(values) != count:
        raise ShapeError(f"{what} must be a list of {count} numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} holds a non-numeric entry: {exc}") from None
    if arr.shape != (count,):
        raise ShapeError(f"{what} must be flat, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteWeightError(f"{what} holds a NaN or infinite value")
    arr.flags.writeable = False
    return arr


def load_model(doc: Union[str, bytes]) -> Model:
    """Parse and validate a model document.

    Raises ParseError for malformed JSON or unknown layer kinds, ShapeError
    for inconsistent dimensions (including an output narrower than two
    classes), and NonFiniteWeightError for NaN or infinite parameters.
    """
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model document is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("model document must be a JSON object")
    try:
        input_dim = data["input_dim"]
        raw_layers = data["layers"]
    except KeyError as exc:
        raise ParseError(f"model document is missing key {exc}") from None
    if not isinstance(input_dim, int) or input_dim < 1:
        raise ParseError(f"input_dim must be a positive integer, got {input_dim!r}")
    if not isinstance(raw_layers, list):
        raise ParseError("layers must be a list")

    layers = []
    width = input_dim
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ParseError(f"layer {i} must be an object with a 'kind'")
        kind = entry["kind"]
        if kind == "dense":
            try:
                rows, cols = entry["rows"], entry["cols"]
            except KeyError as exc:
                raise ParseError(f"dense layer {i} is missing key {exc}") from None
            if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
                raise ParseError(f"dense layer {i} needs positive integer rows/cols")
            if cols != width:
                raise ShapeError(
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
            raise ParseError(f"layer {i} has unknown kind {kind!r}")

    if width < 2:
        raise ShapeError(f"final output dimension must be at least 2, got {width}")
    return Model(input_dim=input_dim, layers=tuple(layers))


def serialize(model: Model) -> str:
    """Emit the JSON document form; load_model round-trips it exactly."""
    entries = []
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            entries.append(
                {
                    "kind": "dense",
                    "rows": layer.rows,
                    "cols": layer.cols,
                    "weights": [float(v) for v in layer.weights.ravel()],
                    "bias": [float(v) for v in layer.bias],
                }
            )
        else:
            entries.append({"kind": layer.kind})
    return json.dumps({"input_dim": model.input_dim, "layers": entries})


def forward_batch(model: Model, points: np.ndarray) -> np.ndarray:
    """Evaluate the net on a (n, input_dim) batch; returns (n, output_dim)."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimensionMismatchError(
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

