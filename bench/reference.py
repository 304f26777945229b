"""Fixed reference loads that track how fast the host runs during a run.

The benchmark's host is shared, and the speed at which it runs the same code
switches between states some 1.7 times apart, for seconds at a time, so a
wall-clock median taken in one run says as much about the host as about
quantcert.  Before the first timed request and after each one (each
REFERENCE_EVERY_S of requests, where requests are shorter) bench/run.py
times one slice of a reference load: fixed code of the benchmark's own, never
quantcert's, doing the same kind of work the workload spends its time in.  A
request's adjusted time is its wall time times ``NOMINAL_S[kind] / slice``,
where slice is the mean time of the slices just before and just after the
request: the time it would take on a host that runs the slice in the nominal
time.  A change to quantcert moves the adjusted time; a change in host speed
moves the request and the slice alike, and cancels.

``stream``: single-threaded Python over small numpy calls on fresh Philox
streams, as in the Bernoulli workloads.  ``dense``: Philox words turned into
784-wide points of a box and passed through a 784-256-10 ReLU net in
128-row batches, as in hardness-784.
"""

import time

import numpy as np

# Slice times on an uncontended 2-vCPU Xeon VM, numpy's default BLAS threads.
# They set only the scale of the adjusted figures, which then read as the wall
# time such a host would show.
NOMINAL_S = {"stream": 0.0107, "dense": 0.042}

STREAM_BLOCKS = 500
STREAM_WORDS = 128
DENSE_BATCHES = 12
DENSE_ROWS = 128
DENSE_DIMS = (784, 256, 10)
_HALF_OPEN = 1.0 / (1 << 53)


def _stream() -> None:
    threshold = np.uint64(1 << 49)
    hits = 0
    for j in range(STREAM_BLOCKS):
        gen = np.random.Generator(np.random.Philox(key=j))
        gen.bit_generator.advance(j)
        raw = gen.bit_generator.random_raw(STREAM_WORDS)
        hits += int(np.count_nonzero((raw >> np.uint64(11)) < threshold))


class _Dense:
    def __init__(self) -> None:
        d, h, k = DENSE_DIMS
        rng = np.random.default_rng(784)
        self.w1 = rng.standard_normal((h, d)) / np.sqrt(d)
        self.b1 = rng.standard_normal(h)
        self.w2 = rng.standard_normal((k, h)) / np.sqrt(h)
        self.b2 = rng.standard_normal(k)
        self.lo = np.full(d, 0.25)
        self.width = np.full(d, 0.5)

    def __call__(self) -> None:
        d = DENSE_DIMS[0]
        for j in range(DENSE_BATCHES):
            gen = np.random.Generator(np.random.Philox(key=j))
            raw = gen.bit_generator.random_raw(DENSE_ROWS * d).reshape(DENSE_ROWS, d)
            x = self.lo + ((raw >> np.uint64(11)).astype(np.float64) * _HALF_OPEN) * self.width
            hidden = np.maximum(x @ self.w1.T + self.b1, 0.0)
            np.argmax(hidden @ self.w2.T + self.b2, axis=1)


class Reference:
    """Times slices of one kind of reference load."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._load = _stream if kind == "stream" else _Dense()

    def slice_seconds(self) -> float:
        started = time.perf_counter()
        self._load()
        return time.perf_counter() - started
