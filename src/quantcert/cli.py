"""Command line front end.

Subcommands: certify (run one query against an oracle), hardness (scan
radii), simulate (Bernoulli-only soundness and cost studies), plan and
budget (pure arithmetic, no oracle).  Exit codes: 0 yes, 1 no,
2 inconclusive, 64 usage error, 70 internal error.  The QUANTCERT_SEED
environment variable overrides --seed; with neither set, a fresh root seed
is drawn from OS entropy and recorded in the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from dataclasses import asdict
from typing import List, Optional, Sequence

import numpy as np

from .core import QuantCertError, SeedSpec, validate_query
from .nn import load_model
from .oracle import BernoulliOracle, SubprocessOracle
from .robustness import (
    _MAX_GRID_POINTS,
    NoYesFoundError,
    RobustnessQuery,
    adversarial_hardness,
    certify_density,
    make_sampler,
)
from .sim import complexity_sweep, soundness_trial
from .strategy import (
    STRATEGIES,
    ResourceLimits,
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


class UsageError(QuantCertError):
    """Bad flag combination or malformed argument value."""


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
    p.add_argument("--batch-size", type=int, default=None,
                   help="trials per oracle draw (default: sized by the oracle)")
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _resolve_seed(args: argparse.Namespace) -> SeedSpec:
    env = os.environ.get("QUANTCERT_SEED")
    if env is not None:
        try:
            return SeedSpec(int(env))
        except ValueError:
            raise UsageError(f"QUANTCERT_SEED must be an integer, got {env!r}") from None
    if args.seed is not None:
        return SeedSpec(args.seed)
    return SeedSpec.fresh()


def _limits(args: argparse.Namespace) -> Optional[ResourceLimits]:
    if args.max_samples is None and args.max_wall_ms is None:
        return None
    return ResourceLimits(max_samples=args.max_samples, max_wall_ms=args.max_wall_ms)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _read_center(path: str, row_index: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(tok.strip() for tok in r)]
    if not rows:
        raise UsageError(f"{path} holds no data rows")
    if not 0 <= row_index < len(rows):
        raise UsageError(f"--center-row {row_index} outside 0..{len(rows) - 1}")
    try:
        return np.array([float(tok) for tok in rows[row_index]], dtype=np.float64)
    except ValueError as exc:
        raise UsageError(f"non-numeric value in {path}: {exc}") from None


def _parse_grid(text: str) -> List[float]:
    """Comma list 'a,b,c' or range 'lo:hi:step' with both ends included."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range grids look like lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(v) for v in parts)
        except ValueError as exc:
            raise UsageError(f"bad grid value: {exc}") from None
        # Negated so that NaN ends or steps fail as well.
        if not (step > 0 and hi >= lo and math.isfinite(hi - lo)):
            raise UsageError("range grids need finite ends, hi >= lo and step > 0")
        n = max(1, int(round(min((hi - lo) / step, _MAX_GRID_POINTS))))
        if n >= _MAX_GRID_POINTS:
            raise UsageError(f"range grids hold at most {_MAX_GRID_POINTS} points")
        return [lo * (1.0 - k / n) + hi * (k / n) for k in range(n + 1)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid value: {exc}") from None


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
        raise UsageError(
            "pick exactly one oracle source: --bernoulli, --model, or --oracle-cmd"
        )

    if args.bernoulli is not None:
        oracle = BernoulliOracle(args.bernoulli)
        config = {
            "subcommand": "certify",
            "source": "bernoulli",
            "p": args.bernoulli,
            "strategy": args.strategy,
            "batch_size": args.batch_size,
        }
        report = run_strategy(
            args.strategy,
            query,
            oracle,
            seed,
            limits=limits,
            batch_size=args.batch_size,
            config=config,
        )
    elif args.model is not None:
        if args.center is None or args.eps is None:
            raise UsageError("--model runs need --center and --eps")
        with open(args.model) as fh:
            model = load_model(fh.read())
        center = _read_center(args.center, args.center_row)
        request = RobustnessQuery(
            center=center, epsilon=args.eps, norm=args.norm, query=query
        )
        report = certify_density(
            model,
            request,
            seed,
            strategy=args.strategy,
            limits=limits,
            batch_size=args.batch_size,
        )
    else:
        if args.center is None or args.eps is None or args.reference_label is None:
            raise UsageError(
                "--oracle-cmd runs need --center, --eps, and --reference-label"
            )
        center = _read_center(args.center, args.center_row)
        sampler = make_sampler(args.norm, center, args.eps)
        config = {
            "subcommand": "certify",
            "source": "subprocess",
            "command": args.oracle_cmd,
            "strategy": args.strategy,
            "norm": args.norm,
            "epsilon": args.eps,
            "center": [float(v) for v in center],
            "reference_label": args.reference_label,
            "batch_size": args.batch_size,
        }
        with SubprocessOracle(args.oracle_cmd, sampler, args.reference_label) as oracle:
            report = run_strategy(
                args.strategy,
                query,
                oracle,
                seed,
                limits=limits,
                batch_size=args.batch_size,
                config=config,
            )

    text = report.canonical_json() if args.canonical else report.to_json()
    _emit(text, args.out)
    return _verdict_exit(report.verdict.kind)


def _cmd_hardness(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    seed = _resolve_seed(args)
    with open(args.model) as fh:
        model = load_model(fh.read())
    center = _read_center(args.center, args.center_row)
    if (args.eps_grid is None) == (args.eps_lo is None):
        raise UsageError("pick one radius spec: --eps-grid or --eps-lo/--eps-hi/--resolution")
    grid = _parse_grid(args.eps_grid) if args.eps_grid is not None else None
    eps_range = None
    if grid is None:
        if args.eps_hi is None or args.resolution is None:
            raise UsageError("--eps-lo needs --eps-hi and --resolution")
        eps_range = (args.eps_lo, args.eps_hi, args.resolution)

    try:
        result = adversarial_hardness(
            model,
            center,
            query,
            seed,
            eps_grid=grid,
            eps_range=eps_range,
            method=args.method,
            norm=args.norm,
            strategy=args.strategy,
            limits=_limits(args),
            batch_size=args.batch_size,
        )
    except NoYesFoundError as exc:
        _emit(
            json.dumps(
                {
                    "hardness": None,
                    "method": args.method,
                    "error": "no-yes-found",
                    "probes": [asdict(p) for p in exc.probe_log],
                },
                indent=2,
            ),
            args.out,
        )
        return EXIT_NO
    _emit(
        json.dumps(
            {
                "hardness": result.hardness,
                "method": result.method,
                "total_samples": result.total_samples,
                "probes": [asdict(p) for p in result.probe_log],
            },
            indent=2,
        ),
        args.out,
    )
    return EXIT_YES


def _cmd_simulate(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    seed = _resolve_seed(args)
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise UsageError(f"unknown strategies: {unknown}; expected {sorted(STRATEGIES)}")
    p_grid = _parse_grid(args.p_grid)
    limits = _limits(args)

    if args.mode == "sweep":
        table = complexity_sweep(
            strategies, query, p_grid, args.trials, seed,
            limits=limits, batch_size=args.batch_size,
        )
        text = table.to_csv().rstrip("\n") if args.format == "csv" else table.to_json()
        _emit(text, args.out)
        return 0

    docs = []
    stream = 0
    for name in strategies:
        for p in p_grid:
            stats = soundness_trial(
                name, query, p, args.trials, seed.child(stream),
                limits=limits, batch_size=args.batch_size,
            )
            stream += 1
            docs.append(asdict(stats))
    _emit(json.dumps(docs, indent=2), args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_tester(args.theta1, args.theta2, args.delta_call)
    _emit(
        json.dumps(
            {
                "theta1": plan.theta1,
                "theta2": plan.theta2,
                "delta_call": plan.delta_call,
                "n": plan.n_samples,
                "eta1": plan.eta1,
                "eta2": plan.eta2,
                "t": plan.t,
            },
            indent=2,
        ),
        args.out,
    )
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    query = validate_query((args.theta, args.eta, args.delta))
    bound = worst_case_budget(query)
    _emit(
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
        args.out,
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
    cert.add_argument("--norm", choices=("linf", "l2"), default="linf")
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
    hard.add_argument("--norm", choices=("linf", "l2"), default="linf")
    hard.add_argument("--strategy", choices=sorted(STRATEGIES), default="bincert")
    hard.add_argument("--method", choices=("sweep", "bisect"), default="sweep")
    hard.add_argument("--eps-grid", default=None, help="comma list or lo:hi:step")
    hard.add_argument("--eps-lo", type=float, default=None)
    hard.add_argument("--eps-hi", type=float, default=None)
    hard.add_argument("--resolution", type=float, default=None)
    _add_run_flags(hard)
    hard.set_defaults(func=_cmd_hardness)

    simp = sub.add_parser("simulate", help="Bernoulli-only studies, no model")
    _add_query_flags(simp)
    simp.add_argument("--strategy", default="bincert",
                      help="comma-separated strategy names")
    simp.add_argument("--p-grid", required=True, help="comma list or lo:hi:step")
    simp.add_argument("--trials", type=int, default=100)
    simp.add_argument("--mode", choices=("sweep", "soundness"), default="sweep")
    simp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_run_flags(simp)
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
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"quantcert: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuantCertError as exc:
        print(f"quantcert: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
