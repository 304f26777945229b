"""Replay pins for the kernels on the adversarial-density path.

``LinfBallSampler.batch``, ``L2BallSampler.batch`` (through ``to_open_unit``
and scipy's ``ndtri``) and ``forward_batch`` make every point and logit a
density or hardness run sees.  The digests below were recorded from the
out-of-place form of these kernels, before they were rewritten to work in
place, so a change of any byte fails here: an in-place rewrite that reorders
arithmetic, or a numpy or scipy upgrade that moves ndtri, clip or cast bits.
``test_pins_hold_without_asserts`` recomputes them under ``python -O``.
They were recorded with numpy 2.4.6 and scipy 1.17.1.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quantcert import (
    L2BallSampler,
    LinfBallSampler,
    SeedSpec,
    ThresholdQuery,
    adversarial_hardness,
    forward_batch,
    load_model,
)
from quantcert.core import to_unit

PIN_SEED = 20240817

# Read in this order from one spec: a window at 0, one that resumes the
# cursor, a fresh nonzero start on another call, and a single trial.
WINDOWS = ((3, 0, 167), (3, 167, 50), (5, 1000, 20), (5, 4321, 1))

SAMPLER_EPS = {"linf": 0.1, "l2": 2.0}

# "<norm>-<d>" -> sha256 of each window's points, little-endian float64
GOLDEN_POINTS = {
    "linf-784": [
        "b19f3d007fe22c4055e7ee5f1981b127880569cf07bd46bcd3e4aa26dc6988dd",
        "50c314d9befc05b344928664138e1c70d9e2406d61a19209d12eebee629097f2",
        "6b0d6b975c415b36bfa84522412eb26995903eaebef977416daff336aa444a59",
        "70095ac48aa4f7cbc97395ba4a8d5eb3f9ace54b4de0db0fc31ce57c8f426f5a",
    ],
    "linf-785": [
        "85610d677c6a05728b416ce8b93273ed280d9334b0f5dfbb8137b111714b1471",
        "2408f25db7ca1fa04047bc533d60ac9acdf4137045889410494af641782a87d8",
        "d0ba7b6676bc8b86c349d806a0b24cbc0762b12f51a8df474000916df7e90279",
        "e4524cf78a5c1d1b33adbdb8fe2784b53f5a9c0c80a695900de2f8493cc818a4",
    ],
    "l2-784": [
        "0accbf5caba9bd5ec60f2fe7ef79eac59e77043955c04b18edb69b386f899126",
        "fed33fd633f03006fc01f8536603790ea73809c477de1d866e90b43bcd290238",
        "e48fb4a01fc0d1b7bdb6c55a36624c8bfccb9f306eec425b40f1500b15953e75",
        "cf6d4bbe5428d8af42a74d33e9dfcbe62f9782e849c88ae0da59271ca87fc684",
    ],
    "l2-785": [
        "7647b596d5746e1e82f84bcbc6110fdd1040bf7089e9f443215dfc7e7184dd7d",
        "60203a7c2256540335dfdba0bf0a4fd60f73931c05fbbf11f079c12643785f26",
        "2075f1c8e0be9796a177c7f32228b62a19f23d77e77cc327c20f9d79b8034dd7",
        "3beb3a95cc8e8550d32f4b667ec7375b0ba21294614eeed69a5ef987ac8f478c",
    ],
}

GOLDEN_LOGITS_SHA256 = "6b56dbb166a72b6f26702b50e25520c7a11585c764e584d53e1d1fd6628f1876"

# norm -> (eps grid, hardness, probe log as (epsilon, verdict, total_samples))
GOLDEN_HARDNESS = {
    "linf": (
        (0.02, 0.03, 0.04, 0.05, 0.06, 0.08),
        0.04,
        [(0.02, "yes", 1654), (0.08, "no", 155), (0.04, "yes", 1654), (0.05, "no", 1654)],
    ),
    "l2": (
        (0.6, 0.8, 1.0, 1.2, 1.5, 2.0),
        0.8,
        [(0.6, "yes", 1654), (2.0, "no", 54), (1.0, "no", 1654), (0.8, "yes", 1654)],
    ),
}


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def pin_center(d):
    """A center in the unit box with coordinates on both faces."""
    center = to_unit(SeedSpec(PIN_SEED).raw_block(21, 0, 1, d))[0]
    center[::7] = 0.0
    center[3::11] = 1.0
    return center


def _dyadic(spec, call_index, rows, cols):
    # Odd multiples of 2^-7 in [-15/128, 15/128].
    k = (spec.raw_block(call_index, 0, rows, cols) >> np.uint64(60)).astype(np.int64)
    return (2 * k - 15) * 2.0**-7


def pin_model():
    """A seeded 784-256-10 ReLU net with dyadic weights.

    On the dyadic inputs of ``pin_inputs`` every product and partial sum is
    exact in float64, so the pinned logits do not depend on the order in
    which a BLAS build accumulates a matrix product.
    """
    spec = SeedSpec(PIN_SEED)
    w1, b1 = _dyadic(spec, 11, 256, 784), _dyadic(spec, 12, 1, 256)[0]
    w2, b2 = _dyadic(spec, 13, 10, 256), _dyadic(spec, 14, 1, 10)[0]
    return load_model(json.dumps({"input_dim": 784, "layers": [
        {"kind": "dense", "rows": 256, "cols": 784,
         "weights": w1.ravel().tolist(), "bias": b1.tolist()},
        {"kind": "relu"},
        {"kind": "dense", "rows": 10, "cols": 256,
         "weights": w2.ravel().tolist(), "bias": b2.tolist()},
    ]}))


def pin_inputs():
    """64 points of the unit box on the 2^-10 grid."""
    return np.floor(to_unit(SeedSpec(PIN_SEED).raw_block(9, 0, 64, 784)) * 1024.0) / 1024.0


def kernel_digests():
    """Every sampler window's digest and the logits digest, as pinned above."""
    digests = {}
    for norm, cls in (("linf", LinfBallSampler), ("l2", L2BallSampler)):
        for d in (784, 785):
            sampler = cls(pin_center(d), SAMPLER_EPS[norm])
            spec = SeedSpec(PIN_SEED)
            digests[f"{norm}-{d}"] = [
                _sha256(sampler.batch(spec, call_index, start, count))
                for call_index, start, count in WINDOWS
            ]
    digests["logits"] = _sha256(forward_batch(pin_model(), pin_inputs()))
    return digests


@pytest.fixture(scope="module")
def digests():
    return kernel_digests()


@pytest.mark.parametrize("key", sorted(GOLDEN_POINTS))
def test_sampler_points(digests, key):
    assert digests[key] == GOLDEN_POINTS[key]


def test_forward_logits(digests):
    assert digests["logits"] == GOLDEN_LOGITS_SHA256


@pytest.mark.parametrize("norm", sorted(GOLDEN_HARDNESS))
def test_hardness_probe_log(norm):
    grid, hardness, probes = GOLDEN_HARDNESS[norm]
    result = adversarial_hardness(
        pin_model(),
        pin_inputs()[0],
        ThresholdQuery(0.05, 0.05, 0.1),
        SeedSpec(PIN_SEED),
        eps_grid=grid,
        method="bisect",
        norm=norm,
    )
    assert result.hardness == hardness
    assert [(p.epsilon, p.verdict, p.total_samples) for p in result.probe_log] == probes


def test_pins_hold_without_asserts():
    # The samplers' containment checks run only under __debug__; stripping
    # them must not change a byte.
    import quantcert

    src = os.path.dirname(os.path.dirname(quantcert.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json, sys\n"
        "import test_kernels\n"
        "print(json.dumps([sys.flags.optimize, __debug__, test_kernels.kernel_digests()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    optimize, debug, got = json.loads(out.stdout)
    assert optimize == 1 and debug is False
    assert got == {**GOLDEN_POINTS, "logits": GOLDEN_LOGITS_SHA256}
