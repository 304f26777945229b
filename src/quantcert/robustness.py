"""Adversarial-density and adversarial-hardness certification.

The adversarial density of a classifier around a point x0 is the fraction
of an epsilon-ball (intersected with the unit box) whose points the model
labels differently from x0.  A threshold query over that density is decided
by sampling the ball; adversarial hardness is the largest epsilon on a grid
for which the density query still certifies yes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Literal, Optional, Sequence, Tuple, Type, get_args

import numpy as np

from .core import (
    OutOfRangeError,
    SeedSpec,
    ThresholdQuery,
    _HALF_OPEN_SCALE,
    _check_choice,
    _check_int,
    _check_list,
    _check_real,
    to_open_unit,
    to_unit,
    validate_query,
)
from .nn import Model, predict_batch
from .oracle import PropertyOracle
from .strategy import CertificationReport, ResourceLimits, run_strategy


def _reals(name: str, values) -> np.ndarray:
    """A fresh float64 array, -0.0 stored as 0.0, once numpy reads ints or floats."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise OutOfRangeError(f"{name} coordinates must be ints or floats, not {arr.dtype.name}")
    return arr.astype(np.float64) + 0.0


@dataclass(frozen=True, eq=False)
class _Ball:
    """A ball's center and radius, checked here once for every norm.

    The center is stored as a read-only float64 copy, a zero as 0.0.  Each
    sampler names its ``norm`` and the ``note`` its reports carry.
    """

    center: np.ndarray
    epsilon: float

    norm: ClassVar[str]
    note: ClassVar[str]

    def __post_init__(self) -> None:
        x0 = _reals("center", self.center)
        if x0.ndim != 1 or x0.size < 1:
            raise OutOfRangeError(f"center must be a nonempty vector, got shape {x0.shape}")
        if not np.all(np.isfinite(x0)) or np.any(x0 < 0.0) or np.any(x0 > 1.0):
            raise OutOfRangeError("center coordinates must sit in [0, 1]")
        x0.flags.writeable = False
        object.__setattr__(self, "center", x0)
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon, "(0, inf)"))

    @property
    def dimension(self) -> int:
        return int(self.center.size)


@dataclass(frozen=True, eq=False)
class LinfBallSampler(_Ball):
    """Uniform over the box [x0 - eps, x0 + eps] clipped to the unit box.

    The clipped region is itself a box, so sampling is exact: coordinate i
    is uniform on [max(0, x0_i - eps), min(1, x0_i + eps)].  One raw word
    per coordinate per trial, mapped to ``to_unit(word) * span + lo``.
    """

    norm = "linf"
    note = "linf sampling is exact on the clipped box"

    def __post_init__(self) -> None:
        super().__post_init__()
        lo = np.maximum(0.0, self.center - self.epsilon)
        hi = np.minimum(1.0, self.center + self.epsilon)
        span = hi - lo
        for arr in (lo, hi, span):
            arr.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "span", span)

    def batch(self, seed: SeedSpec, start: int, count: int) -> np.ndarray:
        raw = seed.raw_block(start, count, width=self.dimension)
        # to_unit(raw) * span + lo, shifting the fresh raw block in place.
        raw >>= np.uint64(11)
        points = raw.astype(np.float64)
        points *= _HALF_OPEN_SCALE
        points *= self.span
        points += self.lo
        if __debug__ and count:
            assert np.all(points >= self.lo) and np.all(points <= self.hi)
        return points


@dataclass(frozen=True, eq=False)
class L2BallSampler(_Ball):
    """Uniform over the euclidean eps-ball, then clipped into the unit box.

    Direction comes from normalized inverse-CDF gaussians, radius from
    eps * U^(1/d).  Clipping moves each coordinate toward the center, so
    samples stay inside the ball; the clipped distribution is only
    approximately uniform near the box walls, and reports disclose that.
    One trial consumes d + 1 raw words: d for the direction, one for the
    radius.

    Replay depends on the order of the float operations, which is, per row:
    g = ndtri(to_open_unit(w[:d])), with the ndtri bits coming from scipy;
    norm = sqrt(add.reduce(g * g)), the same bits as ``np.linalg.norm``;
    r = eps * to_unit(w[d]) ** (1 / d); then g / norm, times r, plus the
    center, clipped to [0, 1].  No norm is zero: to_open_unit never returns
    1/2, so ndtri never returns 0.
    """

    norm = "l2"
    note = "l2 samples are clipped into the unit box; density refers to the clipped ball"

    def batch(self, seed: SeedSpec, start: int, count: int) -> np.ndarray:
        # Imported here: scipy.special costs more to import than the rest of
        # the package, and only l2 sampling needs it.
        from scipy.special import ndtri

        d = self.dimension
        raw = seed.raw_block(start, count, width=d + 1)
        # One (count, d) buffer holds the normals, the directions, then the
        # points; squares is the only other (count, d) array.
        points = to_open_unit(raw[:, :d])
        ndtri(points, out=points)
        squares = points * points
        norms = np.sqrt(np.add.reduce(squares, axis=1))
        radii = self.epsilon * to_unit(raw[:, d]) ** (1.0 / d)
        points /= norms[:, None]
        points *= radii[:, None]
        points += self.center
        np.clip(points, 0.0, 1.0, out=points)
        if __debug__ and count:
            np.subtract(points, self.center, out=squares)
            squares *= squares
            shift = np.sqrt(np.add.reduce(squares, axis=1))
            assert np.all(shift <= self.epsilon * (1.0 + 1e-12))
        return points


# Every sampler by its norm, in the order the CLI's --norm help lists them.
SAMPLERS: Dict[str, Type[_Ball]] = {cls.norm: cls for cls in (LinfBallSampler, L2BallSampler)}
# The hardness search methods, in the order --method's help lists them.
Method = Literal["sweep", "bisect"]
METHODS = get_args(Method)


def make_sampler(norm: str, center: np.ndarray, epsilon: float) -> _Ball:
    """SAMPLERS[norm](center, epsilon), the norm checked by _check_choice."""
    return SAMPLERS[_check_choice("norm", norm, SAMPLERS)](center, epsilon)


class MisclassificationProperty:
    """Holds at x when the model's label differs from the reference label."""

    def __init__(self, model: Model, reference_label: int) -> None:
        self.model = model
        self.reference_label = _check_int("reference_label", reference_label, 0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        return predict_batch(self.model, points) != self.reference_label


def misclassification_property(model: Model, x0: np.ndarray) -> MisclassificationProperty:
    """Predicate marking points the model labels differently from x0."""
    x0 = _reals("x0", x0)
    if x0.shape != (model.input_dim,):
        raise OutOfRangeError(
            f"x0 has shape {x0.shape}, model expects ({model.input_dim},)"
        )
    if not np.all(np.isfinite(x0)):
        raise OutOfRangeError("x0 coordinates must be finite")
    return MisclassificationProperty(model, int(predict_batch(model, x0[None])[0]))


def certify_density(
    model: Model,
    x0: np.ndarray,
    query: ThresholdQuery,
    seed: SeedSpec,
    epsilon: float,
    norm: str = "linf",
    strategy: str = "bincert",
    limits: Optional[ResourceLimits] = None,
) -> CertificationReport:
    """Certify whether the adversarial density of the ball around x0 is <= theta.

    The ball is ``make_sampler(norm, x0, epsilon)``, clipped to the unit box;
    its sampler checks the norm, center and radius.  The report's config
    records the norm, radius, center and x0's label; its last note is the
    sampler's.
    """
    sampler = make_sampler(norm, x0, epsilon)
    prop = misclassification_property(model, sampler.center)
    return _certify_ball(prop, sampler, query, seed, strategy, limits)


def _certify_ball(
    prop,
    sampler: _Ball,
    query: ThresholdQuery,
    seed: SeedSpec,
    strategy: str,
    limits: Optional[ResourceLimits],
    config: Optional[Dict[str, object]] = None,
) -> CertificationReport:
    """Run a strategy on the property over the sampler's ball and record the ball.

    A trial succeeds where ``prop`` holds; ``prop.reference_label`` is the
    label it compares against.  The report's config holds the caller's
    keys, then the sampler's norm, radius and center and the reference
    label; its notes end with the sampler's note on how it samples.
    """
    config = {
        **(config or {}),
        "norm": sampler.norm,
        "epsilon": sampler.epsilon,
        "center": [float(v) for v in sampler.center],
        "reference_label": prop.reference_label,
    }
    oracle = PropertyOracle(sampler, prop)
    report = run_strategy(strategy, query, oracle, seed, limits=limits, config=config)
    return replace(report, notes=report.notes + (sampler.note,))


@dataclass(frozen=True)
class ProbeRecord:
    """One hardness probe: the radius, its density verdict and the samples it spent."""

    epsilon: float
    verdict: str
    total_samples: int


@dataclass(frozen=True)
class HardnessResult:
    """Largest grid radius whose density query certified yes, with every probe.

    probe_log lists the probes in the order they ran.  sweep probes grid
    indices 0, 1, 2, ... up to its first non-yes, at most n = len(grid)
    probes; bisect probes the largest radius, then the middle of the open
    bracket, at most 1 + ceil(log2 n) probes.  The probe at grid index k
    ran under seed.child(k).  hardness is None when the smallest radius did
    not certify yes; the log then ends with that radius's probe, the only
    one for sweep.
    """

    hardness: Optional[float]
    method: Method
    probe_log: Tuple[ProbeRecord, ...]

    @property
    def total_samples(self) -> int:
        return sum(p.total_samples for p in self.probe_log)


def _normalize_grid(eps_grid: Sequence[float]) -> List[float]:
    grid = [_check_real("epsilon", e, "(0, inf)")
            for e in _check_list("eps_grid", eps_grid, "radii")]
    if not grid:
        raise OutOfRangeError("eps_grid must be nonempty")
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise OutOfRangeError("eps_grid must be strictly increasing")
    return grid


def adversarial_hardness(
    model: Model,
    x0: np.ndarray,
    query: ThresholdQuery,
    seed: SeedSpec,
    eps_grid: Sequence[float],
    method: Method = "sweep",
    norm: str = "linf",
    strategy: str = "bincert",
    limits: Optional[ResourceLimits] = None,
) -> HardnessResult:
    """Largest radius in eps_grid at which the density stays certified low.

    eps_grid is a nonempty, strictly increasing list of finite positive
    radii; a bad grid raises OutOfRangeError before the first probe.  Each
    probe is one certify_density call on the ball of that radius around x0.
    The search keeps a bracket: yes is the largest grid index known to
    certify yes (-1 while none is), no the smallest index known not to
    (len(eps_grid) while none is), and yes < no always.  It probes inside
    the bracket until no = yes + 1.  sweep probes yes + 1, so it walks up
    from the smallest radius and makes at most n = len(eps_grid) probes.
    bisect, which assumes verdicts are monotone in the radius, probes the
    largest radius first and then the middle of the bracket, at most
    1 + ceil(log2 n) probes.  A non-yes includes inconclusive probes; they
    close the bracket like a no but stay visible in the log.  When the
    smallest radius does not certify yes, hardness is None and the log ends
    with that radius's probe.  Each probe runs under the same limits, with
    its own deadline, and the probe at grid index k takes the child seed
    seed.child(k), so a radius's report does not depend on the search path.
    """
    q = validate_query(query)
    grid = _normalize_grid(eps_grid)
    method = _check_choice("method", method, METHODS)
    probes: List[ProbeRecord] = []
    yes, no = -1, len(grid)
    while no - yes > 1:
        if method == "sweep":
            k = yes + 1
        elif no == len(grid):
            k = no - 1
        else:
            k = (yes + no) // 2
        report = certify_density(
            model,
            x0,
            q,
            seed.child(k),
            grid[k],
            norm=norm,
            strategy=strategy,
            limits=limits,
        )
        verdict = report.verdict.kind
        probes.append(
            ProbeRecord(epsilon=grid[k], verdict=verdict, total_samples=report.total_samples)
        )
        if verdict == "yes":
            yes = k
        else:
            no = k
    return HardnessResult(
        hardness=grid[yes] if yes >= 0 else None, method=method, probe_log=tuple(probes)
    )
