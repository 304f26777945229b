"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single machine-greppable verdict line.  These are intentionally
heavier than the unit tests: they run real Monte Carlo campaigns.
"""

import math
import statistics

import numpy as np
from scipy import stats as sps

from quantcert import (
    BernoulliOracle,
    SeedSpec,
    ThresholdQuery,
    adversarial_hardness,
    certify_density,
    run_strategy,
)
from quantcert.robustness import L2BallSampler, LinfBallSampler
from quantcert.sim import complexity_sweep
from quantcert.strategy import baseline_samples, worst_case_budget
from quantcert.tester import plan_tester
from quantcert.cli import main as cli_main
from conftest import CountingOracle, assert_per_side, linear_model, parent_budgets, schedule_rows


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_reference_tester_plan():
    plan = plan_tester(0.1, 0.2, 0.01)
    ok = (plan.n_samples, plan.c) == (278, 40)
    _verdict(1, ok, f"plan(0.1, 0.2, 0.01) gives n={plan.n_samples}, c={plan.c}")


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
        report = run_strategy("bincert", query, BernoulliOracle(0.3), seed.child(j))
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
    # The one Monte Carlo check of real runs: every cell's wrong count and
    # mean cost must agree with the exact table complexity_sweep computes.
    seed = SeedSpec(20250802)
    trials = 500
    delta = 0.1
    worst = 0.0
    cells = 0
    stream = 0
    mismatches = []
    for strategy in ("bincert", "fixedcert"):
        for theta, eta in ((0.1, 0.05), (0.01, 0.01), (0.5, 0.1)):
            query = ThresholdQuery(theta, eta, delta)
            must_yes = [theta / 2.0, theta]
            must_no = [theta + 1.01 * eta, min(1.0, theta + 3.0 * eta)]
            rates = must_yes + must_no
            table = complexity_sweep([strategy], query, rates)
            for p, row in zip(rates, table.rows):
                cell_seed = seed.child(stream)
                stream += 1
                cells += 1
                oracle = BernoulliOracle(p)
                wrong = 0
                totals = []
                for j in range(trials):
                    report = run_strategy(strategy, query, oracle, cell_seed.child(j))
                    wrong += report.verdict.kind != ("yes" if p <= theta else "no")
                    totals.append(report.total_samples)
                allowed = sps.binom.isf(1e-4, trials, row.p_wrong)
                gap = abs(statistics.fmean(totals) - row.mean_samples)
                tolerance = 5.0 * row.stddev_samples / math.sqrt(trials)
                # 1e-9 of the mean absorbs rounding in a law of one total
                if not (
                    row.p_wrong <= delta
                    and wrong <= allowed
                    and gap <= tolerance + 1e-9 * row.mean_samples
                ):
                    mismatches.append(
                        f"{strategy} {query} p={p}: {wrong} wrong (allowed {allowed:.0f}), "
                        f"mean {gap:.2f} off the law"
                    )
                worst = max(worst, wrong / trials)
    _verdict(
        4,
        worst <= delta and not mismatches,
        f"{cells} strategy/rate cells x {trials} trials: worst wrong-verdict rate "
        f"{worst:.4f} <= delta {delta}, law mismatches {mismatches or 'none'}",
    )


def test_c05_mean_cost_beats_baseline_tenfold():
    query = ThresholdQuery(0.01, 0.01, 0.01)
    grid = [k * 0.05 for k in range(21)]
    table = complexity_sweep(["bincert"], query, grid)
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
                report = run_strategy("bincert", query, BernoulliOracle(p), seed.child(stream))
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
        planned = {name: [(side, budget) for side, _, _, budget in schedule_rows(name, query)]
                   for name in ("bincert", "fixedcert")}
        for name, spent in planned.items():
            assert_per_side(query, spent, parent_budgets(name, query, spent))
        rates = (0.0, query.theta + query.eta / 2.0, 1.0)
        for j, p in enumerate(rates):
            oracle = BernoulliOracle(p)
            for k, name in enumerate(("bincert", "fixedcert")):
                report = run_strategy(name, query, oracle, seed.child(10 * i + j + 5 * k))
                # a run makes a prefix of its schedule's calls, so each
                # side's budgets sum to no more than the schedule's
                budgets = [(c.side, c.plan.delta_call) for c in report.calls]
                assert budgets == planned[name][: len(budgets)]
                checked += 1
    _verdict(
        7,
        True,
        f"{checked} reports kept each side's failure budgets, with the final "
        "call's, within delta (per-side union bound holds)",
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
        wrong = 0
        for _ in range(runs):
            report = certify_density(model, center, query, seed.child(stream), 0.1)
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
            eps_grid=grid, method=method,
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
    points = L2BallSampler(center, eps).batch(seed, 0, n)
    u = (np.linalg.norm(points - center, axis=1) / eps) ** d
    ks = sps.kstest(u, "uniform")

    corner = np.array([0.05, 0.9, 0.5, 0.02])
    sampler = LinfBallSampler(corner, 0.25)
    box = sampler.batch(seed, 0, n)
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
    # the config the CLI writes for a --bernoulli run
    config = {"subcommand": "certify", "source": "bernoulli", "p": 0.4, "strategy": "bincert"}
    oracles = [BernoulliOracle(0.4)] + [
        CountingOracle(BernoulliOracle(0.4), batch_trials=b) for b in (64, 4096)
    ]
    lib = {
        run_strategy("bincert", query, oracle, SeedSpec(seed), config=config).canonical_json()
        for oracle in oracles
    }

    code = cli_main(
        [
            "certify", "--theta", "0.3", "--eta", "0.2", "--delta", "0.1",
            "--bernoulli", "0.4", "--seed", str(seed), "--canonical",
        ]
    )
    cli = capsys.readouterr().out.removesuffix("\n")
    ok = lib == {cli}
    detail = (
        "canonical reports byte-identical across the default draw size, 64 "
        f"and 4096 (library) and the CLI's --canonical output, verdict exit {code}"
    )
    with capsys.disabled():
        _verdict(11, ok, detail)
