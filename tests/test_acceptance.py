"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single machine-greppable verdict line.  These are intentionally
heavier than the unit tests: they run real Monte Carlo campaigns.
"""

import json
import math
import statistics

import numpy as np
from scipy import stats as sps

from quantcert import (
    BernoulliOracle,
    L2BallSampler,
    LinfBallSampler,
    RobustnessQuery,
    SeedSpec,
    ThresholdQuery,
    adversarial_hardness,
    bincert,
    certify_density,
    fixedcert,
)
from quantcert.sim import complexity_sweep, soundness_trial
from quantcert.strategy import (
    BinCertParams,
    FixedCertParams,
    baseline_samples,
    worst_case_budget,
)
from quantcert.tester import plan_tester
from quantcert.cli import main as cli_main
from conftest import linear_model


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_reference_tester_plan():
    plan = plan_tester(0.1, 0.2, 0.01)
    eta1_ref = 0.046410161513775458
    t_ref = 0.146410161513775458
    ok = (
        plan.n_samples == 642
        and abs(plan.eta1 - eta1_ref) <= 1e-6
        and abs(plan.t - t_ref) <= 1e-6
    )
    _verdict(
        1,
        ok,
        f"plan(0.1, 0.2, 0.01) gives n={plan.n_samples}, "
        f"eta1={plan.eta1:.12f}, t={plan.t:.12f}",
    )


def test_c02_baseline_size():
    n = baseline_samples(ThresholdQuery(0.1, 1e-3, 0.01))
    ok = n == 55_262_043 and n > 55_000_000
    _verdict(2, ok, f"estimation baseline at eta=1e-3, delta=0.01 needs n={n}")


def test_c03_easy_refutation_is_cheap():
    query = ThresholdQuery(0.1, 1e-3, 0.01)
    seed = SeedSpec(20250801)
    totals = []
    no_count = 0
    for j in range(100):
        report = bincert(query, BernoulliOracle(0.3), seed.child(j), batch_size=4096)
        totals.append(report.total_samples)
        no_count += report.verdict.kind == "no"
    mean = statistics.fmean(totals)
    ok = no_count >= 99 and 1000 <= mean <= 10_000
    _verdict(
        3,
        ok,
        f"bincert vs Bernoulli(0.3): {no_count}/100 refuted, "
        f"mean samples {mean:.1f} (baseline {baseline_samples(query)})",
    )


def test_c04_soundness_under_known_rates():
    seed = SeedSpec(20250802)
    trials = 500
    delta = 0.1
    worst = 0.0
    cells = 0
    stream = 0
    for strategy in ("bincert", "fixedcert"):
        for theta, eta in ((0.1, 0.05), (0.01, 0.01), (0.5, 0.1)):
            query = ThresholdQuery(theta, eta, delta)
            must_yes = [theta / 2.0, theta]
            must_no = [theta + 1.01 * eta, min(1.0, theta + 3.0 * eta)]
            for p in must_yes + must_no:
                result = soundness_trial(
                    strategy, query, p, trials, seed.child(stream), batch_size=16384
                )
                stream += 1
                cells += 1
                worst = max(worst, result.failure_rate)
    ok = worst <= delta
    _verdict(
        4,
        ok,
        f"{cells} strategy/rate cells x {trials} trials: "
        f"worst wrong-verdict rate {worst:.4f} <= delta {delta}",
    )


def test_c05_mean_cost_beats_baseline_tenfold():
    query = ThresholdQuery(0.01, 0.01, 0.01)
    grid = [k * 0.05 for k in range(21)]
    table = complexity_sweep(
        ["bincert"], query, grid, 30, SeedSpec(20250803), batch_size=8192
    )
    grid_mean = statistics.fmean(row.mean_samples for row in table.rows)
    base = baseline_samples(query)
    ok = grid_mean <= base / 10.0
    _verdict(
        5,
        ok,
        f"bincert grid-mean cost {grid_mean:.1f} vs baseline/10 = {base / 10:.1f}",
    )


BUDGET_CONFIGS = (
    (0.0, 0.5, 0.01),
    (0.0, 0.05, 0.1),
    (0.01, 0.01, 0.01),
    (0.01, 0.05, 0.05),
    (0.05, 0.02, 0.1),
    (0.1, 0.05, 0.1),
    (0.1, 0.01, 0.01),
    (0.1, 0.2, 0.2),
    (0.2, 0.1, 0.05),
    (0.25, 0.05, 0.1),
    (0.3, 0.01, 0.01),
    (0.33, 0.07, 0.15),
    (0.4, 0.3, 0.1),
    (0.5, 0.1, 0.01),
    (0.5, 0.5, 0.2),
    (0.6, 0.05, 0.05),
    (0.7, 0.2, 0.1),
    (0.8, 0.1, 0.05),
    (0.9, 0.05, 0.1),
    (0.95, 0.05, 0.05),
)


def _probe_rates(query):
    raw = [
        0.0,
        query.theta / 2.0,
        query.theta,
        query.theta + query.eta / 2.0,
        query.upper,
        min(1.0, query.theta + 2.0 * query.eta),
        0.5,
        1.0,
    ]
    return sorted({min(1.0, max(0.0, p)) for p in raw})


def test_c06_observed_cost_never_exceeds_budget():
    seed = SeedSpec(20250804)
    stream = 0
    runs = 0
    worst_margin = math.inf
    for theta, eta, delta in BUDGET_CONFIGS:
        query = ThresholdQuery(theta, eta, delta)
        cap = worst_case_budget(query).exact_schedule_total
        for p in _probe_rates(query):
            for _ in range(2):
                report = bincert(
                    query, BernoulliOracle(p), seed.child(stream), batch_size=16384
                )
                stream += 1
                runs += 1
                assert report.total_samples <= cap, (theta, eta, delta, p)
                worst_margin = min(worst_margin, cap - report.total_samples)
    _verdict(
        6,
        True,
        f"{runs} runs over {len(BUDGET_CONFIGS)} configs stayed within the "
        f"exact schedule budget (tightest slack {worst_margin})",
    )


def test_c07_per_report_failure_accounting():
    seed = SeedSpec(20250805)
    queries = [
        ThresholdQuery(0.3, 0.01, 0.01),
        ThresholdQuery(0.04, 0.01, 0.05),
        ThresholdQuery(0.5, 0.1, 0.1),
        ThresholdQuery(0.0, 0.05, 0.1),
        ThresholdQuery(0.95, 0.05, 0.05),
    ]
    checked = 0
    for i, query in enumerate(queries):
        rates = (0.0, query.theta + query.eta / 2.0, 1.0)
        for j, p in enumerate(rates):
            oracle = BernoulliOracle(p)
            rep_b = bincert(query, oracle, seed.child(10 * i + j), batch_size=8192)
            delta_min = BinCertParams.from_query(query).delta_min
            assert len(rep_b.calls) * delta_min <= query.delta + 1e-12
            assert all(c.plan.delta_call == delta_min for c in rep_b.calls)

            rep_f = fixedcert(query, oracle, seed.child(10 * i + j + 5), batch_size=8192)
            params = FixedCertParams.from_query(query)
            planned = (
                params.n_left * params.delta_left
                + params.n_right * params.delta_right
                + params.delta_final
            )
            assert planned <= query.delta + 1e-12
            assert (
                sum(c.plan.delta_call for c in rep_f.calls)
                <= query.delta + 1e-12
            )
            checked += 2
    _verdict(
        7,
        True,
        f"{checked} reports kept per-call failure budgets within delta "
        "(union bound holds)",
    )


def test_c08_analytic_density_verdicts():
    # logits (0, x0 - c) over the eps-box around (0.5, 0.5): the flip
    # density is exactly (0.5 + eps - c) / (2 eps), so c = 0.6 - 0.2 q
    # realizes any target density q at eps = 0.1
    seed = SeedSpec(20250806)
    query = ThresholdQuery(0.1, 0.05, 0.05)
    center = np.array([0.5, 0.5])
    runs = 200
    failures = {}
    stream = 0
    for q, expected in ((0.05, "yes"), (0.10, "yes"), (0.15, "no"), (0.25, "no")):
        model = linear_model(0.6 - 0.2 * q)
        request = RobustnessQuery(center, 0.1, "linf", query)
        wrong = 0
        for _ in range(runs):
            report = certify_density(
                model, request, seed.child(stream), batch_size=8192
            )
            stream += 1
            wrong += report.verdict.kind != expected
        failures[q] = wrong / runs
    worst = max(failures.values())
    ok = worst <= query.delta
    _verdict(
        8,
        ok,
        f"densities {sorted(failures)} over {runs} runs each: "
        f"worst failure rate {worst:.4f} <= delta {query.delta}",
    )


def test_c09_hardness_recovers_the_critical_radius():
    # boundary 0.7 around (0.5, 0.5): density is 0 up to eps = 0.2 and
    # jumps to 0.1 at the next grid point
    seed = SeedSpec(20250807)
    query = ThresholdQuery(1e-3, 1e-3, 0.05)
    center = np.array([0.5, 0.5])
    model = linear_model(0.7)
    grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    results = {
        method: adversarial_hardness(
            model, center, query, seed.child(k),
            eps_grid=grid, method=method, batch_size=8192,
        )
        for k, method in enumerate(("sweep", "bisect"))
    }
    values = {m: r.hardness for m, r in results.items()}
    ok = all(v in (0.15, 0.2) for v in values.values())
    _verdict(
        9,
        ok,
        f"hardness at theta=1e-3: sweep={values['sweep']}, "
        f"bisect={values['bisect']} (critical radius 0.2)",
    )


def test_c10_sampler_distributions():
    seed = SeedSpec(20250808)
    d, eps, n = 8, 0.3, 100_000
    center = np.full(d, 0.5)
    points = L2BallSampler(center, eps).batch(seed, 0, 0, n)
    u = (np.linalg.norm(points - center, axis=1) / eps) ** d
    ks = sps.kstest(u, "uniform")

    corner = np.array([0.05, 0.9, 0.5, 0.02])
    sampler = LinfBallSampler(corner, 0.25)
    box = sampler.batch(seed, 1, 0, n)
    inside = np.all((box >= sampler.lo) & (box <= sampler.hi))

    ok = ks.pvalue > 0.01 and bool(inside)
    _verdict(
        10,
        ok,
        f"l2 radius^d KS p={ks.pvalue:.4f} (> 0.01), "
        f"linf containment {'100%' if inside else 'violated'}",
    )


def test_c11_reports_are_batch_size_invariant(capsys):
    query = ThresholdQuery(0.3, 0.2, 0.1)
    seed = 24680
    lib = {
        bincert(
            query,
            BernoulliOracle(0.4),
            SeedSpec(seed),
            batch_size=batch,
            config={"batch_size": batch},
        ).canonical_json()
        for batch in (None, 64, 4096)
    }

    cli = set()
    codes = set()
    for batch in ([], ["--batch-size", "64"], ["--batch-size", "256"]):
        code = cli_main(
            [
                "certify", "--theta", "0.3", "--eta", "0.2", "--delta", "0.1",
                "--bernoulli", "0.4", "--seed", str(seed), "--canonical",
                *batch,
            ]
        )
        codes.add(code)
        cli.add(capsys.readouterr().out)
    ok = len(lib) == 1 and len(cli) == 1 and len(codes) == 1
    detail = (
        "canonical reports byte-identical across the default batch size, 64 "
        f"and 4096 (library) and the default, 64 and 256 (CLI), verdict exit {codes.pop()}"
    )
    with capsys.disabled():
        _verdict(11, ok, detail)
