"""Monte Carlo studies of the certifiers against known Bernoulli rates.

soundness_trial measures how often a strategy answers wrongly when the true
rate is known; complexity_sweep compares observed sample costs against the
estimation baseline across a grid of rates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import OutOfRangeError, SeedSpec, ThresholdQuery, validate_query
from .oracle import BernoulliOracle
from .strategy import ResourceLimits, baseline_samples, run_strategy


@dataclass(frozen=True)
class SoundnessStats:
    """Verdict counts for repeated runs against a known rate.

    failure_rate is None when p falls inside the guarantee-free band
    (theta, theta + eta): no verdict is wrong there, so no rate applies.
    """

    p: float
    strategy: str
    trials: int
    yes_count: int
    no_count: int
    inconclusive_count: int
    failure_rate: Optional[float]
    mean_samples: float
    median_samples: float
    stddev_samples: float


@dataclass(frozen=True)
class SweepRow:
    p: float
    theta: float
    eta: float
    delta: float
    strategy: str
    mean_samples: float
    baseline_samples: int
    ratio: float


@dataclass(frozen=True)
class SweepTable:
    rows: Tuple[SweepRow, ...]

    _FIELDS = (
        "p",
        "theta",
        "eta",
        "delta",
        "strategy",
        "mean_samples",
        "baseline_samples",
        "ratio",
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self._FIELDS)
        for row in self.rows:
            writer.writerow([getattr(row, f) for f in self._FIELDS])
        return buf.getvalue()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            [{f: getattr(row, f) for f in self._FIELDS} for row in self.rows],
            indent=indent,
        )


def _check_rates(p_grid: Sequence[float]) -> None:
    """Raise OutOfRangeError unless every rate sits in [0, 1]."""
    for p in p_grid:
        if not 0.0 <= p <= 1.0:
            raise OutOfRangeError(f"p must sit in [0, 1], got {p}")


def soundness_trial(
    strategy: str,
    query: ThresholdQuery,
    p: float,
    trials: int,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
) -> SoundnessStats:
    """Run the strategy repeatedly against Bernoulli(p) and score verdicts.

    A run fails when p <= theta but the verdict is not yes, or when
    p >= theta + eta but the verdict is not no.  Rates strictly inside the
    band carry no guarantee and produce failure_rate None.
    """
    q = validate_query(query)
    _check_rates([p])
    if trials < 1:
        raise OutOfRangeError(f"trials must be at least 1, got {trials}")
    oracle = BernoulliOracle(p)
    counts = {"yes": 0, "no": 0, "inconclusive": 0}
    totals: List[int] = []
    wrong = 0
    for j in range(trials):
        report = run_strategy(
            strategy, q, oracle, seed.child(j), limits=limits
        )
        counts[report.verdict.kind] += 1
        totals.append(report.total_samples)
        if p <= q.theta:
            wrong += report.verdict.kind != "yes"
        elif p >= q.upper:
            wrong += report.verdict.kind != "no"

    in_band = q.theta < p < q.upper
    return SoundnessStats(
        p=p,
        strategy=strategy,
        trials=trials,
        yes_count=counts["yes"],
        no_count=counts["no"],
        inconclusive_count=counts["inconclusive"],
        failure_rate=None if in_band else wrong / trials,
        mean_samples=statistics.fmean(totals),
        median_samples=float(statistics.median(totals)),
        stddev_samples=statistics.stdev(totals) if trials > 1 else 0.0,
    )


def complexity_sweep(
    strategies: Sequence[str],
    query: ThresholdQuery,
    p_grid: Sequence[float],
    trials: int,
    seed: SeedSpec,
    limits: Optional[ResourceLimits] = None,
) -> SweepTable:
    """Mean observed cost per strategy and rate, against the baseline size."""
    q = validate_query(query)
    if trials < 1:
        raise OutOfRangeError(f"trials must be at least 1, got {trials}")
    _check_rates(p_grid)
    base = baseline_samples(q)
    rows: List[SweepRow] = []
    stream = 0
    for name in strategies:
        for p in p_grid:
            oracle = BernoulliOracle(p)
            totals = []
            for j in range(trials):
                report = run_strategy(
                    name,
                    q,
                    oracle,
                    seed.child(stream),
                    limits=limits,
                )
                stream += 1
                totals.append(report.total_samples)
            mean = statistics.fmean(totals)
            rows.append(
                SweepRow(
                    p=p,
                    theta=q.theta,
                    eta=q.eta,
                    delta=q.delta,
                    strategy=name,
                    mean_samples=mean,
                    baseline_samples=base,
                    ratio=base / mean if mean > 0 else math.inf,
                )
            )
    return SweepTable(rows=tuple(rows))
