"""Seeded inputs for the benchmark workloads, and the truths the gate checks.

Everything quantcert receives is built here from numpy generators keyed by
the workload seed: Bernoulli rates and root seeds, the 784-256-10 model
document, near-boundary centers and their eps grids.  The same seed always
gives the same inputs.  Reference densities for the hardness gate come from
a plain-numpy forward pass over the generator's own weight arrays, never
from ``quantcert.nn``.

Run as a script, ``python3 bench/workloads.py WORKLOAD SEED SMOKE PATH``
pickles one workload's inputs to PATH; bench/run.py does this in a child
interpreter.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

# A root seed per request; runs longer than this many requests reuse them.
ROOT_SEEDS = 4096


def canonical_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def binom_pmf(n: int, p: float) -> List[float]:
    """Binomial(n, p) probabilities of 0..n, by the ratio recursion in log space."""
    if p <= 0.0 or p >= 1.0:
        return [float(j == (n if p >= 1.0 else 0)) for j in range(n + 1)]
    logs = [n * math.log1p(-p)]
    odds = math.log(p) - math.log1p(-p)
    for j in range(n):
        logs.append(logs[-1] + math.log((n - j) / (j + 1)) + odds)
    return [math.exp(v) for v in logs]


# False-alarm rate of the gate when the program errs at exactly delta.
GATE_ALPHA = 1e-4


def wrong_tolerance(n: int, delta: float) -> int:
    """Largest wrong-verdict count the delta guarantee explains for n checks.

    The smallest k with P[Binomial(n, delta) > k] <= GATE_ALPHA: a tester that
    spends its whole failure budget still passes with probability 1 - alpha.
    """
    pmf = binom_pmf(n, delta)
    k, tail = n, 0.0
    while k > 0 and tail + pmf[k] <= GATE_ALPHA:
        tail += pmf[k]
        k -= 1
    return k


@dataclass
class Check:
    """Verdicts compared with a known truth, for one delta."""

    delta: float
    checked: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, expected: str, got: str, what: str) -> None:
        self.checked += 1
        if expected != got:
            self.wrong += 1
            self.notes.append(f"{what}: expected {expected}, got {got}")

    @property
    def tolerance(self) -> int:
        return wrong_tolerance(self.checked, self.delta)

    @property
    def ok(self) -> bool:
        return self.wrong <= self.tolerance

    def summary(self) -> Dict[str, object]:
        return {"checked": self.checked, "wrong": self.wrong,
                "tolerance": self.tolerance, "delta": self.delta, "ok": self.ok}


def _truth(p: float, query: Sequence[float]) -> Optional[str]:
    theta, eta, _ = query
    if p <= theta:
        return "yes"
    if p >= theta + eta:
        return "no"
    return None


@dataclass
class Outcome:
    """What the benchmark keeps of one request: samples and canonical bytes."""

    samples: int
    sha256: str


class BernoulliWorkload:
    """Strategy requests on Bernoulli oracles, whose truth follows from p."""

    query: Sequence[float]
    rates: Sequence[float]
    reference = "stream"

    def rate(self, i: int) -> float:
        raise NotImplementedError

    def setup_spec(self) -> Dict[str, object]:
        return {"kind": "bernoulli", "rates": list(self.rates)}

    def outcome(self, i: int, report) -> Outcome:
        return Outcome(report.total_samples, canonical_sha(report.canonical_json()))

    def new_checks(self) -> Dict[str, Check]:
        return {"verdicts": Check(self.query[2])}

    def check(self, checks: Dict[str, Check], i: int, report) -> None:
        p = self.rate(i)
        checks["verdicts"].add(_truth(p, self.query), report.verdict.kind, f"request {i} p={p}")


class BernTight(BernoulliWorkload):
    """bincert near a tight band: a few multi-million-sample tester calls."""

    name = "bern-tight"
    query = (0.1, 2e-3, 0.01)
    rates = (0.0995, 0.1025)
    group = len(rates)

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng([seed, 1])
        self.roots = [int(r) for r in rng.integers(0, 2 ** 62, size=ROOT_SEEDS)]

    def params(self) -> Dict[str, object]:
        return {"strategy": "bincert", "query": self.query, "rates": self.rates,
                "root_seeds": self.roots[:2]}

    def rate(self, i: int) -> float:
        return self.rates[i % 2]

    def prepare(self, qc) -> None:
        self.qc = qc
        self.oracles = [qc.BernoulliOracle(p) for p in self.rates]

    def request(self, i: int):
        qc = self.qc
        return qc.run_strategy("bincert", self.query, self.oracles[i % 2],
                               qc.SeedSpec(self.roots[i % ROOT_SEEDS]))


class SimSweep(BernoulliWorkload):
    """Thousands of short run_strategy requests, as soundness_trial makes them."""

    name = "sim-sweep"
    query = (0.1, 0.05, 0.1)
    strategies = ("bincert", "fixedcert", "estimate")
    rates = (0.0, 0.02, 0.05, 0.2, 0.5)
    cells = tuple(itertools.product(strategies, rates))
    group = len(cells)

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng([seed, 2])
        self.root = int(rng.integers(0, 2 ** 62))

    def params(self) -> Dict[str, object]:
        return {"query": self.query, "strategies": self.strategies, "rates": self.rates,
                "root_seed": self.root, "child_index": "request number"}

    def rate(self, i: int) -> float:
        return self.cells[i % self.group][1]

    def prepare(self, qc) -> None:
        self.qc = qc
        self.oracles = {p: qc.BernoulliOracle(p) for p in self.rates}
        self.seed = qc.SeedSpec(self.root)

    def request(self, i: int):
        name, p = self.cells[i % self.group]
        return self.qc.run_strategy(name, self.query, self.oracles[p], self.seed.child(i))


# ---------------------------------------------------------------------------
# hardness-784: model, centers, eps grids and reference densities
# ---------------------------------------------------------------------------


@dataclass
class Net:
    """The generated 784-256-10 ReLU classifier, as plain arrays."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def labels(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(x @ self.w1.T + self.b1, 0.0)
        return np.argmax(hidden @ self.w2.T + self.b2, axis=1)

    def document(self) -> str:
        """The model in the JSON format ``quantcert.load_model`` parses."""
        dense = lambda w, b: {"kind": "dense", "rows": w.shape[0], "cols": w.shape[1],
                              "weights": w.ravel().tolist(), "bias": b.tolist()}
        return json.dumps({"input_dim": self.w1.shape[1],
                           "layers": [dense(self.w1, self.b1), {"kind": "relu"},
                                      dense(self.w2, self.b2)]})


def make_net(rng: np.random.Generator, dims=(784, 256, 10)) -> Net:
    d, h, k = dims
    return Net(
        w1=rng.standard_normal((h, d)) * (2.0 / math.sqrt(d)),
        b1=rng.standard_normal(h) * 0.5,
        w2=rng.standard_normal((k, h)) * (2.0 / math.sqrt(h)),
        b2=rng.standard_normal(k) * 0.1,
    )


def ball_points(norm: str, x0: np.ndarray, eps: float, draw: np.ndarray,
                radius: Optional[np.ndarray] = None) -> np.ndarray:
    """Points of the clipped ball the program samples, from the benchmark's own draws.

    linf: ``draw`` holds uniforms on [0, 1) per coordinate, mapped onto the
    clipped box.  l2: ``draw`` holds unit directions and ``radius`` the
    U^(1/d) radial factors; points are clipped into the unit box.
    """
    if norm == "linf":
        lo = np.maximum(0.0, x0 - eps)
        hi = np.minimum(1.0, x0 + eps)
        return lo + draw * (hi - lo)
    return np.clip(x0 + (eps * radius)[:, None] * draw, 0.0, 1.0)


def ball_draws(rng: np.random.Generator, norm: str, m: int, d: int):
    if norm == "linf":
        return rng.random((m, d)), None
    g = rng.standard_normal((m, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return g, rng.random(m) ** (1.0 / d)


@dataclass
class Center:
    x0: np.ndarray
    label: int
    norm: str
    grid: List[float]
    # Per grid radius: "yes"/"no" where the reference density is clearly
    # outside the band, None where it is not.
    truths: List[Optional[str]] = field(default_factory=list)


class HardnessWorkload:
    """adversarial_hardness(method="bisect") around near-boundary centers."""

    name = "hardness-784"
    query = (0.01, 0.01, 0.05)
    group = 2  # one linf and one l2 center per round
    reference = "dense"
    # Density profile the grid is fitted to: five points where the calibration
    # sample sees no misclassification, then three points past the band.
    upper_targets = (0.06, 0.15, 0.4)
    calib_draws = 384
    calib_ladder = 24

    def __init__(self, seed: int, smoke: bool) -> None:
        model_ss, center_ss, ref_ss, root_ss = np.random.SeedSequence([seed, 3]).spawn(4)
        self.n_centers = 2 if smoke else 8
        self.ref_draws = 500 if smoke else 1500
        self.net = make_net(np.random.default_rng(model_ss))
        self.doc = self.net.document()
        crng = np.random.default_rng(center_ss)
        self.centers: List[Center] = []
        while len(self.centers) < self.n_centers:
            norm = "linf" if len(self.centers) % 2 == 0 else "l2"
            center = self._center(crng, norm)
            if center is not None:
                self.centers.append(center)
        rrng = np.random.default_rng(ref_ss)
        for c in self.centers:
            c.truths = self._reference_truths(rrng, c)
        rng = np.random.default_rng(root_ss)
        self.roots = [int(r) for r in rng.integers(0, 2 ** 62, size=ROOT_SEEDS)]

    def _boundary_point(self, rng: np.random.Generator) -> np.ndarray:
        """Bisect between two differently-labelled points, then step back."""
        d = self.net.w1.shape[1]
        while True:
            a, b = rng.random(d), rng.random(d)
            la, lb = self.net.labels(np.stack([a, b]))
            if la != lb:
                break
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = (lo + hi) / 2.0
            if self.net.labels((a + mid * (b - a))[None, :])[0] == la:
                lo = mid
            else:
                hi = mid
        return a + max(0.0, lo - 0.05) * (b - a)

    def _center(self, rng: np.random.Generator, norm: str) -> Optional[Center]:
        """A center and an eps grid fitted to its measured density curve.

        The curve is measured on a geometric ladder of radii with one set of
        draws shared by every radius.  Grid points 0-4 sit below the largest
        radius that showed no misclassification, points 5-7 where the curve
        crosses ``upper_targets``.  Bisect then probes points 0, 7, 3, 5 and
        4: three yes probes and two no probes per result.
        """
        x0 = self._boundary_point(rng)
        label = int(self.net.labels(x0[None, :])[0])
        d = x0.size
        ladder = (np.geomspace(1e-4, 0.5, self.calib_ladder) if norm == "linf"
                  else np.geomspace(1e-3, 20.0, self.calib_ladder))
        draw, radius = ball_draws(rng, norm, self.calib_draws, d)
        dens = np.array([
            np.mean(self.net.labels(ball_points(norm, x0, e, draw, radius)) != label)
            for e in ladder
        ])
        if dens[0] > 0.0 or dens.max() < self.upper_targets[-1]:
            return None
        clean = ladder[np.argmax(dens > 0.0) - 1]
        low = np.geomspace(0.2 * clean, 0.8 * clean, 5)
        curve = np.maximum.accumulate(dens)
        high = []
        for target in self.upper_targets:
            i = int(np.argmax(curve >= target))
            span = curve[i] - curve[i - 1]
            frac = (target - curve[i - 1]) / span if span > 0 else 1.0
            high.append(float(np.exp(np.log(ladder[i - 1]) + frac * np.log(ladder[i] / ladder[i - 1]))))
        grid = [float(e) for e in low] + high
        if any(b <= a for a, b in zip(grid, grid[1:])):
            return None
        return Center(x0=x0, label=label, norm=norm, grid=grid)

    def _reference_truths(self, rng: np.random.Generator, c: Center) -> List[Optional[str]]:
        """Label each grid radius from a fresh reference sample of the ball.

        A radius is clearly yes when a density of theta would have produced
        this few misclassified points with probability at most 1e-6, and
        clearly no when a density of theta + eta would have produced this
        many with probability at most 1e-6.
        """
        theta, eta, _ = self.query
        m = self.ref_draws
        below, above = binom_pmf(m, theta), binom_pmf(m, theta + eta)
        draw, radius = ball_draws(rng, c.norm, m, c.x0.size)
        truths: List[Optional[str]] = []
        for e in c.grid:
            hits = int(np.count_nonzero(self.net.labels(ball_points(c.norm, c.x0, e, draw, radius)) != c.label))
            if sum(below[: hits + 1]) <= 1e-6:
                truths.append("yes")
            elif sum(above[hits:]) <= 1e-6:
                truths.append("no")
            else:
                truths.append(None)
        return truths

    def params(self) -> Dict[str, object]:
        return {"method": "bisect", "query": self.query, "model": "784-256-10 relu",
                "model_doc_sha256": canonical_sha(self.doc)[:16],
                "centers": self.n_centers, "norms": "linf/l2 alternating",
                "grids": [[round(e, 6) for e in c.grid] for c in self.centers],
                "reference_draws": self.ref_draws,
                "reference_truths": ["".join((t or "-")[0] for t in c.truths) for c in self.centers]}

    def setup_spec(self) -> Dict[str, object]:
        c = self.centers[0]
        return {"kind": "model", "norm": c.norm, "center": c.x0.tolist(), "epsilon": c.grid[0]}

    def prepare(self, qc) -> None:
        self.qc = qc
        self.model = qc.load_model(self.doc)

    def request(self, i: int):
        c = self.centers[i % self.n_centers]
        qc = self.qc
        return qc.adversarial_hardness(self.model, c.x0, self.query,
                                       qc.SeedSpec(self.roots[i % ROOT_SEEDS]),
                                       eps_grid=c.grid, method="bisect", norm=c.norm)

    def outcome(self, i: int, result) -> Outcome:
        doc = {"hardness": result.hardness, "method": result.method,
               "probes": [[p.epsilon, p.verdict, p.total_samples] for p in result.probe_log]}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return Outcome(result.total_samples, canonical_sha(text))

    def new_checks(self) -> Dict[str, Check]:
        # With every clearly-outside probe right, bisect over densities that
        # rise with the radius cannot leave the allowed range: a result out
        # of range with no wrong probe to explain it is a defect, not chance.
        return {"probes": Check(self.query[2]), "hardness_range": Check(0.0)}

    def check(self, checks: Dict[str, Check], i: int, result) -> None:
        c = self.centers[i % self.n_centers]
        truths = c.truths
        explained = False
        for p in result.probe_log:
            k = c.grid.index(p.epsilon)
            if truths[k] is not None:
                checks["probes"].add(truths[k], p.verdict, f"request {i} eps[{k}]")
                explained |= truths[k] != p.verdict
        lowest = 0
        while lowest + 1 < len(truths) and truths[lowest + 1] == "yes":
            lowest += 1
        first_no = next((k for k, t in enumerate(truths) if t == "no"), len(truths))
        k = c.grid.index(result.hardness)
        inside = lowest <= k < first_no or explained
        checks["hardness_range"].add("inside", "inside" if inside else "outside",
                                     f"request {i} hardness eps[{k}] vs [{lowest}, {first_no - 1}]")


WORKLOADS = {w.name: w for w in (BernTight, HardnessWorkload, SimSweep)}


def main(argv: List[str]) -> None:
    """Build one workload's inputs and pickle them: WORKLOAD SEED SMOKE(0|1) PATH."""
    import workloads  # pickle the classes under this module's name, not __main__

    name, seed, smoke, path = argv
    with open(path, "wb") as out:
        pickle.dump(workloads.WORKLOADS[name](int(seed), smoke == "1"), out)


if __name__ == "__main__":
    main(sys.argv[1:])
