"""Replay pins for the kernels on the adversarial-density path.

``LinfBallSampler.batch``, ``L2BallSampler.batch`` (through ``to_open_unit``
and scipy's ``ndtri``) and ``forward_batch`` make every point and logit a
density or hardness run sees.  The logits digest was recorded from the
out-of-place form of these kernels, before they were rewritten to work in
place; the point digests come from the in-place samplers, which reproduce
every point digest the out-of-place form recorded.  So a change of any byte
fails here: an in-place rewrite that reorders arithmetic, or a numpy or
scipy upgrade that moves ndtri, clip or cast bits.
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
from numpy.random import Philox, SeedSequence

from quantcert import (
    SeedSpec,
    ThresholdQuery,
    adversarial_hardness,
    load_model,
)
from quantcert.core import to_unit
from quantcert.nn import forward_batch
from quantcert.robustness import L2BallSampler, LinfBallSampler

PIN_SEED = 20240817

# (start, count), read in this order from one spec: a window at 0, one
# that resumes where it ended, a fresh nonzero start, and a single trial.
WINDOWS = ((0, 167), (167, 50), (1000, 20), (4321, 1))

SAMPLER_EPS = {"linf": 0.1, "l2": 2.0}

# "<norm>-<d>" -> sha256 of each window's points, little-endian float64
GOLDEN_POINTS = {
    "linf-784": [
        "26504b55877873251369abbda20889a07ed840992f19af94fbcd1dd54b234279",
        "0ba4e1c67a0f707722d2bdd99208238cb618f3e0a74596bdeb533e2e58d5c025",
        "f6ce94fe71d8267983fdb8434d2ea4a9c2a3c4b46e15ef18056f507710b9e933",
        "03a8409a828e2aa975aee622172826d1d31d66c0180b70f99a347985d98fbd00",
    ],
    "linf-785": [
        "9d6abd379251d652c13f500e124cd8844f46e5e2f05fba24917521674a0094ef",
        "40988bc3fc2d08f6bc250d705d005e33db774c0ebf38d8570ce7da94cab28f43",
        "649a1f1570c6b26f07217890d618a4635e81e1a916c7c002a19d237d822ab252",
        "2baa99b43ef5952b9956190051d517bfabb1c7ceb709e3d97bbb267d5290205b",
    ],
    "l2-784": [
        "425af99d5f89ffa044fa55d8f9a6c28ff76b1e5245014479fd2d1c46f3837864",
        "151c046ef5f4f9083e928808626efa3c90fa529c5c2260cc0f1c189de00517e4",
        "9e27ad5ba9896d3cc561ae6a6b558d8fe49ed7b2aa8fd827c807712d376cdd7a",
        "5a6f856f6ca7096b21c59e639a6b54bd7f046742999ec5ef6aa35a80cca89868",
    ],
    "l2-785": [
        "c5dad6a55247c1132f81d57a5876599565e9834953fe348150a646e261368176",
        "4b0cc0ec353ae28e68911951b0916a7e458d62d3d870401c4394847be1396187",
        "cda5f5bb1fb01e61b32eafb5ffccefb110f690fd1ff25ab4ede6b170670a2e4a",
        "c493cb0ecc713dba8c0764032b2fdb8d84e4c28cbc332ef358c55b71058b902a",
    ],
}

GOLDEN_LOGITS_SHA256 = "6b56dbb166a72b6f26702b50e25520c7a11585c764e584d53e1d1fd6628f1876"

# norm -> (eps grid, hardness, probe log as (epsilon, verdict, total_samples))
GOLDEN_HARDNESS = {
    "linf": (
        (0.02, 0.03, 0.04, 0.05, 0.06, 0.08),
        0.04,
        [(0.08, "no", 203), (0.04, "yes", 384), (0.05, "no", 384)],
    ),
    "l2": (
        (0.6, 0.8, 1.0, 1.2, 1.5, 2.0),
        0.8,
        [(2.0, "no", 36), (1.0, "no", 384), (0.6, "yes", 384), (0.8, "yes", 384)],
    ),
}


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def _pin_words(key, rows, cols):
    """A (rows, cols) block of raw words from the pin seed's spawn key (key,).

    Keys other than 0 lie outside every run's trial stream, so the model,
    the inputs and the centers share no word with the sampled points.
    """
    bits = Philox(SeedSequence(PIN_SEED, spawn_key=(key,)))
    return bits.random_raw(rows * cols).reshape(rows, cols)


def pin_center(d):
    """A center in the unit box with coordinates on both faces."""
    center = to_unit(_pin_words(21, 1, d))[0]
    center[::7] = 0.0
    center[3::11] = 1.0
    return center


def _dyadic(key, rows, cols):
    # Odd multiples of 2^-7 in [-15/128, 15/128].
    k = (_pin_words(key, rows, cols) >> np.uint64(60)).astype(np.int64)
    return (2 * k - 15) * 2.0**-7


def pin_model():
    """A seeded 784-256-10 ReLU net with dyadic weights.

    On the dyadic inputs of ``pin_inputs`` every product and partial sum is
    exact in float64, so the pinned logits do not depend on the order in
    which a BLAS build accumulates a matrix product.
    """
    w1, b1 = _dyadic(11, 256, 784), _dyadic(12, 1, 256)[0]
    w2, b2 = _dyadic(13, 10, 256), _dyadic(14, 1, 10)[0]
    return load_model(json.dumps({"input_dim": 784, "layers": [
        {"kind": "dense", "rows": 256, "cols": 784,
         "weights": w1.ravel().tolist(), "bias": b1.tolist()},
        {"kind": "relu"},
        {"kind": "dense", "rows": 10, "cols": 256,
         "weights": w2.ravel().tolist(), "bias": b2.tolist()},
    ]}))


def pin_inputs():
    """64 points of the unit box on the 2^-10 grid."""
    return np.floor(to_unit(_pin_words(9, 64, 784)) * 1024.0) / 1024.0


def kernel_digests():
    """Every sampler window's digest and the logits digest, as pinned above."""
    digests = {}
    for norm, cls in (("linf", LinfBallSampler), ("l2", L2BallSampler)):
        for d in (784, 785):
            sampler = cls(pin_center(d), SAMPLER_EPS[norm])
            spec = SeedSpec(PIN_SEED)
            digests[f"{norm}-{d}"] = [
                _sha256(sampler.batch(spec, start, count))
                for start, count in WINDOWS
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
