"""Spans around the calls into quantcert's modules, recorded from outside.

The tracer replaces each traced function under the name its caller looks it
up by (a class attribute, a module global or a ``STRATEGIES`` entry), records
one span per call in memory, and restores every original on exit.  Nothing
inside ``src/`` is changed.  Layer metrics are derived from the spans after
the run: a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# Span names; each layer metric is named after the span it is read from.
REQUEST = "request"
RAW_BLOCK = "core.raw_block"
CHILD = "core.child"
PLAN = "tester.plan"
RUN = "tester.run"
DRAW = "oracle.draw"
SAMPLE_LINF = "robustness.sample.linf"
SAMPLE_L2 = "robustness.sample.l2"
PROBE = "robustness.certify_density"
FORWARD = "nn.forward"
STRATEGY = "strategy"


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # trials, words, points or rows, by span kind
        self._open: List[int] = []
        self._request = -1
        # (trials, successes) of each draw, keyed by the open run_tester span.
        self._tester_draws: Dict[int, List[tuple]] = {}
        self.counters: Dict[str, float] = {
            "sample_bytes": 0.0, "forward_flops": 0.0, "trials_drawn": 0.0,
            "trials_forced": 0.0, "strategy_calls": 0.0, "tester_calls_in_reports": 0.0,
            "report_samples": 0.0, "deciding_samples": 0.0,
        }
        self.missing: List[str] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self._request)
        self.work.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def _parent_name(self, idx: int) -> Optional[str]:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name[p]]

    @contextmanager
    def request_span(self, request_id: int):
        self._request = request_id
        idx = self._begin(REQUEST)
        try:
            yield
        finally:
            self._finish(idx)
            self._request = -1

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``after(idx, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # -- counts recorded at the boundaries ----------------------------------

    def _raw_block(self, idx, args, words) -> None:
        self.work[idx] = words.size
        if self._parent_name(idx) in (SAMPLE_LINF, SAMPLE_L2):
            self.counters["sample_bytes"] += words.nbytes

    def _draw(self, idx, args, tally) -> None:
        self.work[idx] = tally.trials
        if self._parent_name(idx) == RUN:
            self._tester_draws.setdefault(self.parent[idx], []).append(
                (tally.trials, tally.successes))

    def _run(self, idx, args, result) -> None:
        draws = self._tester_draws.pop(idx, [])
        drawn = sum(k for k, _ in draws)
        self.work[idx] = drawn
        self.counters["trials_drawn"] += drawn
        self.counters["trials_forced"] += drawn - forced_at(result.plan, draws)

    def _sample(self, idx, args, points) -> None:
        self.work[idx] = points.shape[0]
        self.counters["sample_bytes"] += points.nbytes

    def _forward(self, idx, args, out) -> None:
        model, points = args[0], args[1]
        rows = np.shape(points)[0]
        macs = sum(getattr(layer, "rows", 0) * getattr(layer, "cols", 0) for layer in model.layers)
        self.work[idx] = rows
        self.counters["forward_flops"] += 2.0 * rows * macs

    def _strategy(self, idx, args, report) -> None:
        c = self.counters
        self.work[idx] = report.total_samples
        c["strategy_calls"] += 1
        c["tester_calls_in_reports"] += len(report.calls)
        c["report_samples"] += report.total_samples
        if report.calls:
            c["deciding_samples"] += report.calls[-1].tally.trials

    # -- installing the wrappers --------------------------------------------

    @contextmanager
    def installed(self, qc_core, qc_strategy, qc_oracle, qc_robustness, qc_nn):
        """Patch the traced names for the duration of the block."""
        targets = [
            (qc_core.SeedSpec, "raw_block", RAW_BLOCK, self._raw_block),
            (qc_core.SeedSpec, "child", CHILD, None),
            (qc_strategy, "plan_tester", PLAN, None),
            (qc_strategy, "run_tester", RUN, self._run),
            (qc_oracle.BernoulliOracle, "draw", DRAW, self._draw),
            (qc_oracle.PropertyOracle, "draw", DRAW, self._draw),
            (qc_robustness.LinfBallSampler, "batch", SAMPLE_LINF, self._sample),
            (qc_robustness.L2BallSampler, "batch", SAMPLE_L2, self._sample),
            (qc_nn, "forward_batch", FORWARD, self._forward),
            (qc_robustness, "certify_density", PROBE, None),
        ]
        targets += [(qc_strategy.STRATEGIES, key, STRATEGY, self._strategy)
                    for key in list(qc_strategy.STRATEGIES)]
        undo = []
        try:
            for owner, attr, name, after in targets:
                if isinstance(owner, dict):
                    undo.append(lambda o=owner, a=attr, v=owner[attr]: o.__setitem__(a, v))
                    owner[attr] = self.wrap(name, owner[attr], after)
                    continue
                if not hasattr(owner, attr):
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else None
                undo.append(lambda o=owner, a=attr, v=original, own=own:
                            setattr(o, a, v) if own else delattr(o, a))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    # -- output -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        np.savez(path, **self.arrays())


def forced_at(plan, draws) -> int:
    """Trials drawn when the outcome was first forced at a draw boundary.

    The outcome is forced once no remaining trials can change it: too many
    successes already for yes, or too few left to reach no.  Plans with an
    integer cutoff ``c`` decide ``successes <= c``; plans without one decide
    ``successes / n <= t``, the comparison the tester makes.
    """
    n = plan.n_samples
    cutoff = getattr(plan, "c", None)
    t = getattr(plan, "t", None)
    if cutoff is None and t is None:
        return sum(k for k, _ in draws)
    yes = (lambda s: s <= cutoff) if cutoff is not None else (lambda s: s / n <= t)
    successes = trials = 0
    for k, s in draws:
        successes += s
        trials += k
        if trials >= n:
            break
        if not yes(successes) or yes(successes + n - trials):
            return trials
    return trials


def layer_metrics(tracer: Tracer, requests: int) -> Dict[str, float]:
    """Per-layer figures from the spans and counters of ``requests`` traced requests."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    # Spans run on one thread and nest, so the children of a span are
    # disjoint and their durations add up to the time they cover.
    covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - covered
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(a["name"], [ids[n] for n in names if n in ids])

    def total_s(*names, of=dur):
        return float(of[mask(*names)].sum())

    def count(*names):
        return int(mask(*names).sum())

    def work(*names):
        return float(a["work"][mask(*names)].sum())

    def ratio(amount, base):
        return amount / base if base > 0 else 0.0

    per = 1.0 / max(1, requests)
    c = tracer.counters
    ms = 1000.0 * per
    return {
        "core.raw_block.calls": count(RAW_BLOCK) * per,
        "core.raw_block.ms": total_s(RAW_BLOCK) * ms,
        "core.raw_words_per_s": ratio(work(RAW_BLOCK), total_s(RAW_BLOCK)),
        "core.child.calls": count(CHILD) * per,
        "core.child.ms": total_s(CHILD) * ms,
        "tester.calls": count(RUN) * per,
        "tester.draws": float(np.isin(a["parent"][mask(DRAW)], np.flatnonzero(mask(RUN))).sum()) * per,
        "tester.self_ms": total_s(RUN, of=self_time) * ms,
        "tester.plan_ms": total_s(PLAN) * ms,
        "tester.forced_trials_frac": ratio(c["trials_forced"], c["trials_drawn"]),
        "oracle.draw.ms": total_s(DRAW) * ms,
        "oracle.self_ms": total_s(DRAW, of=self_time) * ms,
        "oracle.trials_per_s": ratio(work(DRAW), total_s(DRAW)),
        "robustness.sample.linf.points_per_s": ratio(work(SAMPLE_LINF), total_s(SAMPLE_LINF)),
        "robustness.sample.l2.points_per_s": ratio(work(SAMPLE_L2), total_s(SAMPLE_L2)),
        "robustness.sample.ms": total_s(SAMPLE_LINF, SAMPLE_L2) * ms,
        "robustness.sample.bytes": c["sample_bytes"] * per,
        "robustness.probes_per_result": count(PROBE) * per,
        "nn.forward.ms": total_s(FORWARD) * ms,
        "nn.forward.rows_per_s": ratio(work(FORWARD), total_s(FORWARD)),
        "nn.forward.flops": c["forward_flops"] * per,
        "nn.forward.gflops": ratio(c["forward_flops"], total_s(FORWARD)) / 1e9,
        "strategy.calls_per_verdict": ratio(c["tester_calls_in_reports"], c["strategy_calls"]),
        "strategy.deciding_samples_frac": ratio(c["deciding_samples"], c["report_samples"]),
        "strategy.self_ms": total_s(STRATEGY, of=self_time) * ms,
    }
