"""The quantcert benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload bern-tight --seed 1 --seconds 27 --trace 0

Workloads (BENCHMARK.json says why each exists): ``bern-tight``,
``hardness-784`` and ``sim-sweep``.  The seed builds every input
(bench/workloads.py, run in a child interpreter); quantcert
only sees the generated inputs, through its public API, with default
execution settings.  Requests run one at a time in a closed loop on one
thread, in whole rounds (a yes/no pair, a linf/l2 pair, or one pass over the
sim-sweep cells): one warm-up round, checked but not timed, then rounds until
``--seconds`` have passed.  Time and throughput are medians over those rounds.

The host's speed drifts by tens of percent over minutes, so the time and
throughput in the result line are adjusted for it (bench/reference.py): a
fixed reference slice is timed before the first timed request and after each
one (after each REFERENCE_EVERY_S of requests, where requests are shorter),
and each request's wall time is scaled by the slice's nominal time over the
mean time of the slices just before and just after it.  The unadjusted
wall-clock figures, verdict_ms_p50, samples_per_s and verdict_ms_p90, are
printed and kept in the run record beside them.  setup_s, the median of
SETUP_REPS fresh-interpreter set-ups, is wall time.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
request twice, once untraced and once traced (alternating which goes
first), requires both to give the same canonical bytes, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced wall
time).  Every verdict is checked against a truth known from outside the
program.  ``--smoke`` runs the warm-up and one timed round on small inputs,
for the self-test.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run record, with per-request sha256 of the canonical
output, and the spans of a traced run are written under ``--out``.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import tracing
from reference import Reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# Rounds run (and checked) before the clock starts, so caches and lazy set-up are warm.
WARMUP_ROUNDS = 1
# Where requests are shorter than this, a reference slice follows the first
# request that ends this many seconds after the previous slice.
REFERENCE_EVERY_S = 0.2
# verdict_ms_p90 needs at least ten requests beyond it.
P90_MIN_REQUESTS = 100


def import_quantcert():
    """quantcert from this checkout's src/, never from an installed copy."""
    if not (SRC / "quantcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no quantcert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quantcert
    from quantcert import core, nn, oracle, robustness, strategy

    if Path(quantcert.__file__).resolve().parent != (SRC / "quantcert").resolve():
        raise SystemExit(f"error: imported quantcert from {quantcert.__file__}, not {SRC}")
    return quantcert, (core, strategy, oracle, robustness, nn)


def blas_record() -> Dict[str, object]:
    """BLAS library name, version and the thread count it runs with."""
    rec: Dict[str, object] = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["name"], rec["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["threads"] = int(fn())
                return rec
    return rec


def machine_record() -> Dict[str, object]:
    import scipy

    cpu = None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    nproc = len(os.sched_getaffinity(0))
    blas = blas_record()
    return {
        "nproc": nproc, "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads_within_nproc": blas["threads"] is not None and blas["threads"] <= nproc,
    }


def generate(name: str, seed: int, smoke: bool, out: Path):
    """Build the workload's inputs in a separate interpreter.

    The memory the generator touches then does not count in this process's
    peak_rss_mb.  The pickle is read back only right after our own
    generator wrote it.
    """
    path = out / f"inputs-{name}.pickle"
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), name, str(seed),
                    str(int(smoke)), str(path)], check=True, timeout=600)
    with open(path, "rb") as inputs:
        return pickle.load(inputs)


def measure_setup(workload, out: Path, reps: int) -> List[float]:
    """Seconds from starting a fresh interpreter to quantcert being ready, per rep."""
    spec = dict(workload.setup_spec(), src=str(SRC))
    if spec["kind"] == "model":
        model_path = out / f"model-{workload.name}.json"
        model_path.write_text(workload.doc)
        spec["model"] = str(model_path)
    spec_path = out / f"setup-{workload.name}.json"
    spec_path.write_text(json.dumps(spec))
    probe = BENCH / "setup_probe.py"
    times = []
    for _ in range(reps):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(probe), str(spec_path)], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - started)
    return times


class Runner:
    """Closed-loop request loop with per-request timing, hashes and checks."""

    def __init__(self, workload, traced_modules, trace: bool) -> None:
        self.workload = workload
        self.modules = traced_modules
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.checks = workload.new_checks()
        # Indexed by request number; None where the request raised.
        self.seconds: List[Optional[float]] = []
        self.samples: List[Optional[int]] = []
        self.hashes: List[Optional[str]] = []
        self.traced_seconds: List[float] = []
        self.untraced_seconds: List[float] = []
        self.failures: List[str] = []
        self.mismatches: List[int] = []
        self.reference = Reference(workload.reference)
        # Reference slice times, and how many requests had run before each.
        self.slice_seconds: List[float] = []
        self.slice_after: List[int] = []

    def _timed(self, i: int, traced: bool):
        if traced:
            with self.tracer.installed(*self.modules), self.tracer.request_span(i):
                started = time.perf_counter()
                result = self.workload.request(i)
                return result, time.perf_counter() - started
        started = time.perf_counter()
        result = self.workload.request(i)
        return result, time.perf_counter() - started

    def run_one(self, i: int) -> None:
        order = [False, True] if i % 2 == 0 else [True, False]
        runs = {}
        try:
            for traced in order if self.trace else [False]:
                runs[traced] = self._timed(i, traced)
        except Exception:  # a request that raises is a failure, and the loop goes on
            self.failures.append(f"request {i}: {traceback.format_exc(limit=3)}")
            self.seconds.append(None)
            self.samples.append(None)
            self.hashes.append(None)
            return
        result, seconds = runs[False]
        outcome = self.workload.outcome(i, result)
        self.seconds.append(seconds)
        self.samples.append(outcome.samples)
        self.hashes.append(outcome.sha256)
        if self.trace:
            traced_result, traced_seconds = runs[True]
            self.traced_seconds.append(traced_seconds)
            self.untraced_seconds.append(seconds)
            if self.workload.outcome(i, traced_result).sha256 != outcome.sha256:
                self.mismatches.append(i)
        self.workload.check(self.checks, i, result)

    def loop(self, seconds: float, rounds: Optional[int]) -> None:
        """WARMUP_ROUNDS untimed rounds, then whole rounds until ``seconds`` pass.

        A reference slice precedes the first timed request and follows the
        last one and any request that ends REFERENCE_EVERY_S or more after
        the previous slice.
        """
        g = self.workload.group
        i = 0
        for _ in range(WARMUP_ROUNDS):
            for _ in range(g):
                self.run_one(i)
                i += 1
        self.reference.slice_seconds()  # the first slice runs cold
        self.slice_seconds.append(self.reference.slice_seconds())
        self.slice_after.append(i)
        deadline = time.perf_counter() + seconds
        done = 0
        next_slice = 0.0
        while True:
            for k in range(g):
                self.run_one(i)
                i += 1
                now = time.perf_counter()
                last = k == g - 1 and (
                    (rounds is not None and done + 1 >= rounds)
                    or (rounds is None and now >= deadline))
                if last or now >= next_slice:
                    self.slice_seconds.append(self.reference.slice_seconds())
                    self.slice_after.append(i)
                    next_slice = time.perf_counter() + REFERENCE_EVERY_S
            done += 1
            if last:
                return

    @property
    def attempted(self) -> int:
        return len(self.hashes)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks.values()) and not self.mismatches

    def timed_rounds(self) -> List[range]:
        """Request numbers of each round after the warm-up in which none raised."""
        g = self.workload.group
        rounds = [range(j, j + g) for j in range(WARMUP_ROUNDS * g, len(self.seconds), g)]
        return [r for r in rounds if None not in self.seconds[r.start:r.stop]]

    def timed(self, j: int, adjusted: bool) -> float:
        """Seconds of request j, adjusted by the reference slices just before and after it."""
        if not adjusted:
            return self.seconds[j]
        k = bisect.bisect_left(self.slice_after, j + 1)
        around = (self.slice_seconds[k - 1] + self.slice_seconds[k]) / 2.0
        return self.seconds[j] * self.reference.nominal_s / around

    def median_seconds(self, adjusted: bool) -> float:
        """Median over rounds of the round's mean seconds per request.

        A round is a fixed mix of requests whose costs differ many times over
        (yes and no, linf and l2, fifteen sim-sweep cells), so a median over
        single requests would sit on whichever kind happens to be in the
        middle; the round mean weighs the whole mix.
        """
        return statistics.median(sum(self.timed(j, adjusted) for j in r) / len(r)
                                 for r in self.timed_rounds())

    def median_rate(self, adjusted: bool) -> float:
        """Median over rounds of the round's samples per second."""
        return statistics.median(
            sum(self.samples[j] for j in r) / sum(self.timed(j, adjusted) for j in r)
            for r in self.timed_rounds())

    def end_to_end(self, setup_times: List[float]) -> Dict[str, float]:
        samples = [self.samples[j] for r in self.timed_rounds() for j in r]
        return {
            "adj_verdict_ms_p50": 1000.0 * self.median_seconds(adjusted=True),
            "adj_samples_per_s": self.median_rate(adjusted=True),
            "samples_per_verdict": statistics.fmean(samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def unbounded_end_to_end(self) -> Dict[str, float]:
        """Printed but not in the result line: the wall-clock figures drift with
        the host's speed, failed_frac is 0 when all is well, and p90 exists
        only with ten requests or more beyond it."""
        extra = {
            "verdict_ms_p50": 1000.0 * self.median_seconds(adjusted=False),
            "samples_per_s": self.median_rate(adjusted=False),
            "reference_ms": 1000.0 * statistics.median(self.slice_seconds),
            "failed_frac": len(self.failures) / max(1, self.attempted),
        }
        seconds = [self.seconds[j] for r in self.timed_rounds() for j in r]
        if len(seconds) >= P90_MIN_REQUESTS:
            extra["verdict_ms_p90"] = 1000.0 * statistics.quantiles(seconds, n=10)[8]
        return extra

    def per_layer(self) -> Dict[str, float]:
        metrics = tracing.layer_metrics(self.tracer, len(self.traced_seconds))
        untraced = sum(self.untraced_seconds)
        extra = sum(self.traced_seconds) - untraced
        metrics["trace.overhead_ms"] = 1000.0 * extra / max(1, len(self.traced_seconds))
        metrics["trace.overhead_frac"] = extra / untraced if untraced else 0.0
        return metrics


# Units of the end-to-end figures that are printed but not in BENCHMARK.json.
UNBOUNDED_UNITS = {"verdict_ms_p50": "ms", "samples_per_s": "1/s", "reference_ms": "ms",
                   "verdict_ms_p90": "ms", "failed_frac": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one timed round on small inputs, for the self-test")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)

    qc, modules = import_quantcert()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    workload = generate(args.workload, args.seed, args.smoke, args.out)
    generate_s = time.perf_counter() - started
    machine = machine_record()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}{' smoke' if args.smoke else ''}")
    print(f"why: {why}")
    print(f"params: {json.dumps(workload.params())}")
    print(f"machine: {json.dumps(machine)}")
    print(f"input generation: {generate_s:.3f} s (not timed)")

    setup_times = []
    if not args.trace:
        setup_times = measure_setup(workload, args.out, 1 if args.smoke else SETUP_REPS)
    workload.prepare(qc)
    runner = Runner(workload, modules, bool(args.trace))
    runner.loop(args.seconds, 1 if args.smoke else None)
    completed = sum(len(r) for r in runner.timed_rounds())
    if completed == 0:
        print("\n".join(runner.failures), file=sys.stderr)
        print("error: no timed round completed", file=sys.stderr)
        return 1

    printed = {}
    if args.trace:
        metrics = runner.per_layer()
        runner.tracer.write(args.out / f"spans-{workload.name}.npz")
        if runner.tracer.missing:
            print(f"not traced (not found): {', '.join(runner.tracer.missing)}")
        print(f"traced requests: {len(runner.traced_seconds)}, canonical mismatches "
              f"traced vs untraced: {len(runner.mismatches)}")
    else:
        metrics = runner.end_to_end(setup_times)
        printed = runner.unbounded_end_to_end()
        print(f"setup runs (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    units.update(UNBOUNDED_UNITS)
    for name, value in {**metrics, **printed}.items():
        suffix = ""
        if name in ("verdict_ms_p50", "adj_verdict_ms_p50"):
            suffix = f" (n={completed} timed requests, median over rounds of the mean)"
        elif name in ("samples_per_s", "adj_samples_per_s"):
            suffix = " (median over rounds)"
        elif name == "reference_ms":
            suffix = f" (median of {len(runner.slice_seconds)} {workload.reference} slices)"
        elif name == "verdict_ms_p90":
            suffix = f" (n={completed} timed requests)"
        elif name in ("nn.forward.flops", "robustness.sample.bytes"):
            suffix = " (computed from array shapes)"
        print(f"{name}: {value:.6g} {units[name]}{suffix}")
    for name, check in runner.checks.items():
        print(f"gate {name}: {json.dumps(check.summary())}")
        for note in check.notes[:5]:
            print(f"  wrong: {note}")
    for failure in runner.failures[:5]:
        print(f"failed: {failure}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "params": workload.params(), "machine": machine,
        "metrics": metrics, "gate": {k: c.summary() for k, c in runner.checks.items()},
        "request_seconds": runner.seconds, "setup_seconds": setup_times,
        "sha256": runner.hashes, "reference": workload.reference,
        "slice_seconds": runner.slice_seconds, "slice_after": runner.slice_after,
    }
    (args.out / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
