"""Command line front end.

Subcommands: certify (run one query against an oracle), hardness (scan
radii), simulate (exact soundness and cost on Bernoulli rates, computed
from each schedule, not sampled), plan and budget (pure arithmetic, no
oracle).  Each parses its flags, calls one library path and prints one
document.  Exit codes: 0 yes, 1 no, 2 inconclusive, 64 a malformed command
line or an OutOfRangeError (every bad flag, file or environment value),
70 internal error.  The QUANTCERT_SEED environment variable overrides
--seed; with neither set, a fresh root seed is drawn from OS entropy and
recorded in the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from typing import List, Optional, Sequence

import numpy as np

from .core import OutOfRangeError, QuantCertError, SeedSpec, validate_query
from .nn import load_model
from .oracle import BernoulliOracle, SubprocessProperty
from .robustness import (METHODS, SAMPLERS, _certify_ball, adversarial_hardness,
                         certify_density, make_sampler)
from .sim import complexity_sweep
from .strategy import (
    STRATEGIES,
    ResourceLimits,
    _lerp,
    _plan_fields,
    baseline_samples,
    run_strategy,
    worst_case_budget,
)
from .tester import plan_tester

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# Largest grid a range spec may expand to; a tiny step would otherwise ask
# for more points than memory holds.
_MAX_GRID_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, required=True, help="threshold fraction")
    p.add_argument("--eta", type=float, required=True, help="indifference width")
    p.add_argument("--delta", type=float, required=True, help="failure budget")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="root seed (QUANTCERT_SEED overrides)")
    p.add_argument("--max-samples", type=int, default=None)
    p.add_argument("--max-wall-ms", type=float, default=None)
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _resolve_seed(args: argparse.Namespace) -> SeedSpec:
    env = os.environ.get("QUANTCERT_SEED")
    if env is not None:
        try:
            return SeedSpec(int(env))
        except ValueError:
            raise OutOfRangeError(f"QUANTCERT_SEED must be an integer, got {env!r}") from None
    if args.seed is not None:
        return SeedSpec(args.seed)
    return SeedSpec.fresh()


def _limits(args: argparse.Namespace) -> ResourceLimits:
    return ResourceLimits(args.max_samples, args.max_wall_ms)


def _read_center(path: str, row_index: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(tok.strip() for tok in r)]
    if not rows:
        raise OutOfRangeError(f"{path} holds no data rows")
    if not 0 <= row_index < len(rows):
        raise OutOfRangeError(f"--center-row {row_index} outside 0..{len(rows) - 1}")
    try:
        return np.array([float(tok) for tok in rows[row_index]], dtype=np.float64)
    except ValueError as exc:
        raise OutOfRangeError(f"non-numeric value in {path}: {exc}") from None


def _parse_grid(text: str) -> List[float]:
    """Comma list 'a,b,c' or range 'lo:hi:step' with both ends included."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise OutOfRangeError(f"range grids look like lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in parts)
        except ValueError as exc:
            raise OutOfRangeError(f"bad grid value: {exc}") from None
        # Negated so that NaN ends or steps fail as well.
        if not (step > 0 and hi >= lo and math.isfinite(hi - lo)):
            raise OutOfRangeError("range grids need finite ends, hi >= lo and step > 0")
        if hi == lo:
            return [lo]
        n = max(1, int(round(min((hi - lo) / step, _MAX_GRID_POINTS))))
        if n >= _MAX_GRID_POINTS:
            raise OutOfRangeError(f"range grids hold at most {_MAX_GRID_POINTS} points")
        return [_lerp(lo, hi, n, k) for k in range(n + 1)]
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise OutOfRangeError(f"bad grid value: {exc}") from None
    if not grid:
        raise OutOfRangeError(f"grid {text!r} holds no values")
    return grid


def _verdict_exit(kind: str) -> int:
    return {"yes": EXIT_YES, "no": EXIT_NO, "inconclusive": EXIT_INCONCLUSIVE}[kind]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_certify(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    seed = _resolve_seed(args)
    limits = _limits(args)
    sources = [
        args.bernoulli is not None,
        args.model is not None,
        args.oracle_cmd is not None,
    ]
    if sum(sources) != 1:
        raise OutOfRangeError(
            "pick exactly one oracle source: --bernoulli, --model, or --oracle-cmd"
        )
    # A flag the chosen source never reads would be ignored without a word.
    if args.reference_label is not None and args.oracle_cmd is None:
        raise OutOfRangeError("--reference-label is read only by --oracle-cmd runs")
    if args.bernoulli is not None and (args.center is not None or args.eps is not None):
        raise OutOfRangeError("--bernoulli runs read no --center or --eps")

    if args.bernoulli is not None:
        oracle = BernoulliOracle(args.bernoulli)
        config = {
            "subcommand": "certify",
            "source": "bernoulli",
            "p": oracle.p,
            "strategy": args.strategy,
        }
        report = run_strategy(
            args.strategy,
            query,
            oracle,
            seed,
            limits=limits,
            config=config,
        )
    elif args.model is not None:
        if args.center is None or args.eps is None:
            raise OutOfRangeError("--model runs need --center and --eps")
        with open(args.model) as fh:
            model = load_model(fh.read())
        center = _read_center(args.center, args.center_row)
        report = certify_density(
            model,
            center,
            query,
            seed,
            args.eps,
            norm=args.norm,
            strategy=args.strategy,
            limits=limits,
        )
    else:
        if args.center is None or args.eps is None or args.reference_label is None:
            raise OutOfRangeError(
                "--oracle-cmd runs need --center, --eps, and --reference-label"
            )
        center = _read_center(args.center, args.center_row)
        sampler = make_sampler(args.norm, center, args.eps)
        config = {
            "subcommand": "certify",
            "source": "subprocess",
            "command": args.oracle_cmd,
            "strategy": args.strategy,
        }
        with SubprocessProperty(args.oracle_cmd, args.reference_label) as prop:
            report = _certify_ball(prop, sampler, query, seed, args.strategy, limits, config)

    text = report.canonical_json() if args.canonical else report.to_json()
    print(text, file=args.out)
    return _verdict_exit(report.verdict.kind)


def _cmd_hardness(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    seed = _resolve_seed(args)
    grid = _parse_grid(args.eps_grid)
    with open(args.model) as fh:
        model = load_model(fh.read())
    center = _read_center(args.center, args.center_row)

    result = adversarial_hardness(
        model,
        center,
        query,
        seed,
        eps_grid=grid,
        method=args.method,
        norm=args.norm,
        strategy=args.strategy,
        limits=_limits(args),
    )
    doc = {"hardness": result.hardness, "method": result.method}
    if result.hardness is None:
        doc["error"] = "no-yes-found"
    else:
        doc["total_samples"] = result.total_samples
    doc["probes"] = [asdict(p) for p in result.probe_log]
    print(json.dumps(doc, indent=2), file=args.out)
    return EXIT_NO if result.hardness is None else EXIT_YES


def _cmd_simulate(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    table = complexity_sweep(
        strategies, query, _parse_grid(args.p_grid), max_samples=args.max_samples
    )
    text = table.to_csv().rstrip("\n") if args.format == "csv" else table.to_json()
    print(text, file=args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_tester(args.theta1, args.theta2, args.delta_call)
    print(json.dumps(_plan_fields(plan), indent=2), file=args.out)
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    bound = worst_case_budget(query)
    print(
        json.dumps(
            {
                "k1": bound.k1,
                "k2": bound.k2,
                "k3": bound.k3,
                "analytic_total": bound.analytic_total,
                "exact_schedule_total": bound.exact_schedule_total,
                "baseline_samples": baseline_samples(query),
            },
            indent=2,
        ),
        file=args.out,
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="quantcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="decide one threshold query")
    _add_query_flags(cert)
    cert.add_argument("--strategy", choices=sorted(STRATEGIES), default="bincert")
    cert.add_argument("--bernoulli", type=float, default=None, metavar="P",
                      help="synthetic oracle with known rate")
    cert.add_argument("--model", default=None, help="model JSON path")
    cert.add_argument("--oracle-cmd", default=None, help="external classifier command")
    cert.add_argument("--center", default=None, help="center CSV path")
    cert.add_argument("--center-row", type=int, default=0)
    cert.add_argument("--eps", type=float, default=None)
    cert.add_argument("--norm", choices=tuple(SAMPLERS), default="linf")
    cert.add_argument("--reference-label", type=int, default=None)
    cert.add_argument("--canonical", action="store_true",
                      help="emit the deterministic report form (no timing)")
    _add_run_flags(cert)
    cert.set_defaults(func=_cmd_certify)

    hard = sub.add_parser("hardness", help="largest radius still certified")
    _add_query_flags(hard)
    hard.add_argument("--model", required=True)
    hard.add_argument("--center", required=True)
    hard.add_argument("--center-row", type=int, default=0)
    hard.add_argument("--norm", choices=tuple(SAMPLERS), default="linf")
    hard.add_argument("--strategy", choices=sorted(STRATEGIES), default="bincert")
    hard.add_argument("--method", choices=METHODS, default="sweep")
    hard.add_argument("--eps-grid", required=True, help="comma list or lo:hi:step")
    _add_run_flags(hard)
    hard.set_defaults(func=_cmd_hardness)

    simp = sub.add_parser("simulate", help="exact Bernoulli studies, no sampling")
    _add_query_flags(simp)
    simp.add_argument("--strategy", default="bincert",
                      help="comma-separated strategy names")
    simp.add_argument("--p-grid", required=True, help="comma list or lo:hi:step")
    simp.add_argument("--format", choices=("csv", "json"), default="csv")
    simp.add_argument("--max-samples", type=int, default=None)
    simp.add_argument("--out", default=None, help="write output here instead of stdout")
    simp.set_defaults(func=_cmd_simulate)

    plan = sub.add_parser("plan", help="derive one tester call, no sampling")
    plan.add_argument("--theta1", type=float, required=True)
    plan.add_argument("--theta2", type=float, required=True)
    plan.add_argument("--delta", type=float, required=True, dest="delta_call")
    plan.add_argument("--out", default=None)
    plan.set_defaults(func=_cmd_plan)

    budget = sub.add_parser("budget", help="worst-case halving budget, no sampling")
    _add_query_flags(budget)
    budget.add_argument("--out", default=None)
    budget.set_defaults(func=_cmd_budget)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Opened before the run, so an --out that cannot be written fails first.
        out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w")
        with out as args.out:
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (QuantCertError, OSError) as exc:
        print(f"quantcert: {type(exc).__name__}: {exc}", file=sys.stderr)
        # Every range check the CLI can reach tests a flag, a file or the
        # environment, so it is the caller's input that is wrong.
        return EXIT_USAGE if isinstance(exc, OutOfRangeError) else EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
