"""Adversarial-density and adversarial-hardness certification.

The adversarial density of a classifier around a point x0 is the fraction
of an epsilon-ball (intersected with the unit box) whose points the model
labels differently from x0.  A threshold query over that density is decided
by sampling the ball; adversarial hardness is the largest epsilon on a grid
for which the density query still certifies yes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    DimensionMismatchError,
    OutOfRangeError,
    QuantCertError,
    SeedSpec,
    ThresholdQuery,
    _HALF_OPEN_SCALE,
    to_open_unit,
    to_unit,
    validate_query,
)
from .nn import Model, predict_batch
from .oracle import PropertyOracle
from .strategy import CertificationReport, ResourceLimits, run_strategy

Norm = Literal["linf", "l2"]

# Largest radius or rate grid a range spec may expand to; a tiny step would
# otherwise ask for more points than memory holds.
_MAX_GRID_POINTS = 10_000


class EmptySupportError(QuantCertError):
    """A sampling region collapsed to nothing; should be unreachable."""


class NoYesFoundError(QuantCertError):
    """Even the smallest probed radius failed to certify yes."""

    def __init__(self, message: str, probe_log: Tuple["ProbeRecord", ...] = ()):
        super().__init__(message)
        self.probe_log = probe_log


def _check_center(center: np.ndarray) -> np.ndarray:
    x0 = np.asarray(center, dtype=np.float64)
    if x0.ndim != 1 or x0.size < 1:
        raise OutOfRangeError(f"center must be a nonempty vector, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)) or np.any(x0 < 0.0) or np.any(x0 > 1.0):
        raise OutOfRangeError("center coordinates must sit in [0, 1]")
    x0 = x0.copy()
    x0.flags.writeable = False
    return x0


@dataclass(frozen=True, eq=False)
class LinfBallSampler:
    """Uniform over the box [x0 - eps, x0 + eps] clipped to the unit box.

    The clipped region is itself a box, so sampling is exact: coordinate i
    is uniform on [max(0, x0_i - eps), min(1, x0_i + eps)].  One raw word
    per coordinate per trial, mapped to ``to_unit(word) * span + lo``.
    """

    center: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _check_center(self.center))
        if self.epsilon <= 0.0:
            raise OutOfRangeError(f"epsilon must be positive, got {self.epsilon}")
        lo = np.maximum(0.0, self.center - self.epsilon)
        hi = np.minimum(1.0, self.center + self.epsilon)
        if np.any(lo > hi):
            raise EmptySupportError("clipped ball has no volume")
        span = hi - lo
        for arr in (lo, hi, span):
            arr.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "span", span)

    @property
    def dimension(self) -> int:
        return int(self.center.size)

    def batch(
        self, seed: SeedSpec, call_index: int, start: int, count: int
    ) -> np.ndarray:
        raw = seed.raw_block(call_index, start, count, width=self.dimension)
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
class L2BallSampler:
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

    center: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _check_center(self.center))
        if self.epsilon <= 0.0:
            raise OutOfRangeError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def dimension(self) -> int:
        return int(self.center.size)

    def batch(
        self, seed: SeedSpec, call_index: int, start: int, count: int
    ) -> np.ndarray:
        # Imported here: scipy.special costs more to import than the rest of
        # the package, and only l2 sampling needs it.
        from scipy.special import ndtri

        d = self.dimension
        raw = seed.raw_block(call_index, start, count, width=d + 1)
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


def make_sampler(
    norm: Norm, center: np.ndarray, epsilon: float
) -> Union[LinfBallSampler, L2BallSampler]:
    if norm == "linf":
        return LinfBallSampler(center, epsilon)
    if norm == "l2":
        return L2BallSampler(center, epsilon)
    raise OutOfRangeError(f"norm must be 'linf' or 'l2', got {norm!r}")


class MisclassificationProperty:
    """Holds at x when the model's label differs from the reference label."""

    def __init__(self, model: Model, reference_label: int) -> None:
        self.model = model
        self.reference_label = int(reference_label)

    def batch(self, points: np.ndarray) -> np.ndarray:
        return predict_batch(self.model, points) != self.reference_label


def misclassification_property(model: Model, x0: np.ndarray) -> MisclassificationProperty:
    """Predicate marking points the model labels differently from x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (model.input_dim,):
        raise DimensionMismatchError(
            f"x0 has shape {x0.shape}, model expects ({model.input_dim},)"
        )
    return MisclassificationProperty(model, int(predict_batch(model, x0[None])[0]))


@dataclass(frozen=True, eq=False)
class RobustnessQuery:
    """Threshold query over the adversarial density of one ball."""

    center: np.ndarray
    epsilon: float
    norm: Norm
    query: ThresholdQuery

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _check_center(self.center))
        if self.epsilon <= 0.0:
            raise OutOfRangeError(f"epsilon must be positive, got {self.epsilon}")
        if self.norm not in ("linf", "l2"):
            raise OutOfRangeError(f"norm must be 'linf' or 'l2', got {self.norm!r}")


def certify_density(
    model: Model,
    request: RobustnessQuery,
    seed: SeedSpec,
    strategy: str = "bincert",
    limits: Optional[ResourceLimits] = None,
    batch_size: Optional[int] = None,
) -> CertificationReport:
    """Certify whether the adversarial density around the center is <= theta."""
    sampler = make_sampler(request.norm, request.center, request.epsilon)
    prop = misclassification_property(model, request.center)
    oracle = PropertyOracle(sampler, prop)
    config: Dict[str, object] = {
        "norm": request.norm,
        "epsilon": request.epsilon,
        "center": [float(v) for v in request.center],
        "reference_label": prop.reference_label,
        "batch_size": batch_size,
    }
    report = run_strategy(
        strategy,
        request.query,
        oracle,
        seed,
        limits=limits,
        batch_size=batch_size,
        config=config,
    )
    note = (
        "linf sampling is exact on the clipped box"
        if request.norm == "linf"
        else "l2 samples are clipped into the unit box; density refers to the clipped ball"
    )
    return replace(report, notes=report.notes + (note,))


@dataclass(frozen=True)
class ProbeRecord:
    epsilon: float
    verdict: str
    total_samples: int


@dataclass(frozen=True)
class HardnessResult:
    """Largest grid radius whose density query certified yes."""

    hardness: float
    method: Literal["sweep", "bisect"]
    probe_log: Tuple[ProbeRecord, ...]

    @property
    def total_samples(self) -> int:
        return sum(p.total_samples for p in self.probe_log)


def _normalize_grid(
    eps_grid: Optional[Sequence[float]],
    eps_range: Optional[Tuple[float, float, float]],
) -> List[float]:
    if (eps_grid is None) == (eps_range is None):
        raise OutOfRangeError("provide exactly one of eps_grid or eps_range")
    if eps_grid is not None:
        grid = [float(e) for e in eps_grid]
        if not grid:
            raise OutOfRangeError("eps_grid must be nonempty")
        if any(e <= 0.0 for e in grid):
            raise OutOfRangeError("radii must be positive")
        if sorted(grid) != grid or len(set(grid)) != len(grid):
            raise OutOfRangeError("eps_grid must be strictly increasing")
        return grid
    lo, hi, resolution = eps_range
    # Negated so that NaN fails too.
    if not (0.0 < lo < hi < math.inf and resolution > 0.0):
        raise OutOfRangeError(
            "eps_range needs finite 0 < lo < hi and a positive resolution"
        )
    steps = int(round(min((hi - lo) / resolution, _MAX_GRID_POINTS)))
    if steps < 1:
        raise OutOfRangeError("eps_range spans less than one resolution step")
    if steps >= _MAX_GRID_POINTS:
        raise OutOfRangeError(f"eps_range grids hold at most {_MAX_GRID_POINTS} points")
    return [lo + resolution * k for k in range(steps)] + [hi]


def adversarial_hardness(
    model: Model,
    x0: np.ndarray,
    query: ThresholdQuery,
    seed: SeedSpec,
    eps_grid: Optional[Sequence[float]] = None,
    eps_range: Optional[Tuple[float, float, float]] = None,
    method: Literal["sweep", "bisect"] = "sweep",
    norm: Norm = "linf",
    strategy: str = "bincert",
    limits: Optional[ResourceLimits] = None,
    batch_size: Optional[int] = None,
) -> HardnessResult:
    """Largest radius on the grid at which the density stays certified low.

    sweep probes radii in ascending order and stops at the first non-yes;
    bisect assumes verdicts are monotone in the radius and binary-searches
    the grid, probing both ends first.  A non-yes includes inconclusive
    probes; they terminate the scan like a no but stay visible in the log.
    Raises NoYesFoundError when even the smallest radius fails to certify.
    Each probe reuses the same limits and derives its own child seed from
    its probe sequence number.
    """
    q = validate_query(query)
    grid = _normalize_grid(eps_grid, eps_range)
    probes: List[ProbeRecord] = []

    def probe(eps: float) -> str:
        request = RobustnessQuery(center=x0, epsilon=eps, norm=norm, query=q)
        report = certify_density(
            model,
            request,
            seed.child(len(probes)),
            strategy=strategy,
            limits=limits,
            batch_size=batch_size,
        )
        probes.append(
            ProbeRecord(
                epsilon=eps,
                verdict=report.verdict.kind,
                total_samples=report.total_samples,
            )
        )
        return report.verdict.kind

    if method == "sweep":
        hardness: Optional[float] = None
        for eps in grid:
            if probe(eps) != "yes":
                break
            hardness = eps
        if hardness is None:
            raise NoYesFoundError(
                f"smallest radius {grid[0]} did not certify yes",
                probe_log=tuple(probes),
            )
        return HardnessResult(hardness=hardness, method="sweep", probe_log=tuple(probes))

    if method != "bisect":
        raise OutOfRangeError(f"method must be 'sweep' or 'bisect', got {method!r}")

    if probe(grid[0]) != "yes":
        raise NoYesFoundError(
            f"smallest radius {grid[0]} did not certify yes",
            probe_log=tuple(probes),
        )
    if len(grid) == 1 or probe(grid[-1]) == "yes":
        return HardnessResult(
            hardness=grid[-1], method="bisect", probe_log=tuple(probes)
        )
    yes_idx, no_idx = 0, len(grid) - 1
    while no_idx - yes_idx > 1:
        mid = (yes_idx + no_idx) // 2
        if probe(grid[mid]) == "yes":
            yes_idx = mid
        else:
            no_idx = mid
    return HardnessResult(
        hardness=grid[yes_idx], method="bisect", probe_log=tuple(probes)
    )
