"""Exact studies of the certifiers against known Bernoulli rates.

complexity_sweep computes, for each strategy and each rate of a grid, how a
run ends and what it costs: the verdict probabilities, the probability of
a wrong verdict, and the mean, median and spread of the samples it spends,
against the estimation baseline.  Every figure comes from the strategy's
schedule through strategy.schedule_law; nothing is sampled.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import List, Optional, Sequence, Tuple

from .core import (OutOfRangeError, ThresholdQuery, _check_choice, _check_list, _check_real,
                   validate_query)
from .strategy import STRATEGIES, ResourceLimits, baseline_samples, schedule, schedule_law


@dataclass(frozen=True)
class SweepRow:
    """One strategy at one rate.

    p_wrong is the probability of any verdict but yes at p <= theta, or any
    but no at p >= theta + eta; inside the open band no verdict is wrong and
    it is None.  ratio is baseline_samples over mean_samples, and None when
    runs spend nothing.
    """

    p: float
    theta: float
    eta: float
    delta: float
    strategy: str
    p_yes: float
    p_no: float
    p_inconclusive: float
    p_wrong: Optional[float]
    mean_samples: float
    median_samples: float
    stddev_samples: float
    baseline_samples: int
    ratio: Optional[float]


@dataclass(frozen=True)
class SweepTable:
    rows: Tuple[SweepRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(SweepRow))
        writer.writerows(astuple(row) for row in self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps([asdict(row) for row in self.rows], indent=2)


def _moments(samples: Sequence[Tuple[int, float]]) -> Tuple[float, float, float]:
    """Mean, median and standard deviation of a law's run totals.

    Weights are divided by their sum, which rounding leaves a few ulps off 1.
    """
    mass = math.fsum(w for _, w in samples)
    mean = math.fsum(t * w for t, w in samples) / mass
    spread = math.fsum(w * (t - mean) ** 2 for t, w in samples) / mass
    cumulative = itertools.accumulate(w for _, w in samples)
    median = next(t for (t, _), c in zip(samples, cumulative) if c >= mass / 2.0)
    return mean, float(median), math.sqrt(spread)


def complexity_sweep(
    strategies: Sequence[str],
    query: ThresholdQuery,
    p_grid: Sequence[float],
    max_samples: Optional[int] = None,
) -> SweepTable:
    """Exact verdict probabilities and sample costs per strategy and rate.

    Rows run over the strategies, and for each over p_grid in order.
    max_samples caps every run as ResourceLimits does: a call that would
    pass it ends the run inconclusive.  Every argument is checked before the
    first law is computed; both lists must be nonempty.
    """
    q = validate_query(query)
    strategies = [_check_choice("strategy", name, STRATEGIES)
                  for name in _check_list("strategies", strategies, "names")]
    p_grid = [_check_real("p", p, "[0, 1]") for p in _check_list("p_grid", p_grid, "rates")]
    if not strategies:
        raise OutOfRangeError("strategies must be nonempty")
    if not p_grid:
        raise OutOfRangeError("p_grid must be nonempty")
    cap = ResourceLimits(max_samples=max_samples).max_samples
    base = baseline_samples(q)
    rows: List[SweepRow] = []
    for name in strategies:
        for p in p_grid:
            law = schedule_law(schedule(name, q)[1], p, cap)
            wrong = (law.p_no if p <= q.theta else law.p_yes) + law.p_inconclusive
            mean, median, stddev = _moments(law.samples)
            rows.append(
                SweepRow(
                    p=p,
                    theta=q.theta,
                    eta=q.eta,
                    delta=q.delta,
                    strategy=name,
                    p_yes=law.p_yes,
                    p_no=law.p_no,
                    p_inconclusive=law.p_inconclusive,
                    p_wrong=None if q.theta < p < q.upper else wrong,
                    mean_samples=mean,
                    median_samples=median,
                    stddev_samples=stddev,
                    baseline_samples=base,
                    ratio=base / mean if mean > 0 else None,
                )
            )
    return SweepTable(rows=tuple(rows))
