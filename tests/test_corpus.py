"""Golden corpus: canonical report bytes of every strategy across its edges.

Each digest is the sha256 of the ``canonical_json()`` lines of a fixed run
list, joined by newlines.  The Bernoulli corpus covers the three strategies
on queries with theta = 0 and theta + eta = 1, rates at both band edges, at
0 and 1 and in between, two root seeds, and three limits: none, a zero
budget, and a budget that blocks partway through a schedule.  The density
corpus runs ``certify_density`` with linf and l2 balls on the dyadic model
of ``test_kernels``.  The schedule corpus hashes ``schedule_lines``
instead: every entry of each strategy's schedule, reached or not.  A
refactor of the strategy loop must leave every digest unchanged; a change
meant to move report bytes bumps ``SeedSpec.DERIVATION`` and the digests
together.
"""

import hashlib
import json

import pytest

from quantcert import (
    BernoulliOracle,
    ResourceLimits,
    SeedSpec,
    ThresholdQuery,
    certify_density,
    run_strategy,
)
from quantcert.strategy import _plan_fields, schedule
from test_kernels import PIN_SEED, pin_inputs, pin_model

STRATEGY_NAMES = ("bincert", "fixedcert", "estimate")

QUERIES = (
    ThresholdQuery(0.1, 0.05, 0.1),
    ThresholdQuery(0.0, 0.1, 0.1),
    ThresholdQuery(0.9, 0.1, 0.1),
    ThresholdQuery(0.3, 0.02, 0.05),
    ThresholdQuery(0.05, 0.2, 0.2),
)

LIMITS = (None, ResourceLimits(max_samples=0), ResourceLimits(max_samples=3000))

SEEDS = (11, 12, 13)


def _rates(q):
    """0 and 1, both band edges, inside the band and on each flank."""
    rates = (0.0, q.theta / 2.0, q.theta, q.theta + q.eta / 2.0, q.upper,
             (q.upper + 1.0) / 2.0, 1.0)
    return sorted(set(rates))


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def bernoulli_reports(strategy):
    for q in QUERIES:
        for p in _rates(q):
            oracle = BernoulliOracle(p)
            for root in SEEDS:
                for limits in LIMITS:
                    yield run_strategy(strategy, q, oracle, SeedSpec(root), limits=limits)


# The corpus queries, the bench's bern-tight and hardness-784 queries (its
# third is QUERIES[0]), and queries whose flanks are empty, touch 0 or 1,
# or do not halve or cut evenly.
SCHEDULE_QUERIES = QUERIES + (
    ThresholdQuery(0.1, 2e-3, 0.01),
    ThresholdQuery(0.01, 0.01, 0.05),
    ThresholdQuery(0.0, 0.25, 0.1),
    ThresholdQuery(0.5, 0.5, 0.1),
    ThresholdQuery(0.05, 0.1, 0.1),
    ThresholdQuery(0.7, 0.2, 0.1),
    ThresholdQuery(0.1, 1e-3, 0.01),
    ThresholdQuery(0.3, 0.01, 0.01),
    ThresholdQuery(0.04, 0.01, 0.01),
)


def schedule_lines(strategy):
    """Each query's notes, then every call's plan and bounds (a, b), one line each.

    The Bernoulli corpus only pins the calls its runs reach; these lines
    hold every call a run of the schedule could reach.
    """
    for q in SCHEDULE_QUERIES:
        notes, entries = schedule(strategy, q)
        yield json.dumps(list(notes))
        for call in entries:
            yield json.dumps({**_plan_fields(call.plan), "a": call.a, "b": call.b},
                             sort_keys=True)


# norm -> radii that certify yes and no in test_kernels' hardness pins
DENSITY_RADII = {"linf": (0.04, 0.08), "l2": (0.8, 2.0)}


def density_reports(norm):
    model = pin_model()
    query = ThresholdQuery(0.05, 0.05, 0.1)
    for epsilon in DENSITY_RADII[norm]:
        for strategy in STRATEGY_NAMES:
            for limits in (None, ResourceLimits(max_samples=2500)):
                yield certify_density(
                    model, pin_inputs()[0], query, SeedSpec(PIN_SEED), epsilon,
                    norm, strategy, limits,
                )


GOLDEN_BERNOULLI = {
    "bincert": "9f62df171ece5625d735998306f4ab86f1c76ddd75d81b0c67e8c3b74721d338",
    "fixedcert": "c5813a06edfc1f3266d015ebc0cafeac6ab95afe0d71ff61a7ba1ae70623454e",
    "estimate": "8b89deeaa9a22ba13c64b1da4d71e30560ddbac88448840fe20a70b14a7ccb0e",
}

GOLDEN_DENSITY = {
    "linf": "18ff080ed3ac4ee752dec30a5e21737ab8d4af1df808953021df8a742da1a7cf",
    "l2": "c9ea0613ea0fe397ff4dfcfc44a738b91c612886e2277126e79b5e33def4a25a",
}


GOLDEN_SCHEDULES = {
    "bincert": "376fba5592fb705311d4cf075d88f40702b1e8812d6313acd43f8ee138b74fef",
    "fixedcert": "7c36c648f50c1207feb371ac0ee07a3620ff00b1d484b796039b1971910267f2",
    "estimate": "9d1aab1a2c9fd90cc6f56bebe9270b009d2b191886b808f9bccf6706b87a7639",
}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_bernoulli_corpus(strategy):
    reports = bernoulli_reports(strategy)
    assert _digest(r.canonical_json() for r in reports) == GOLDEN_BERNOULLI[strategy]


@pytest.mark.parametrize("norm", sorted(GOLDEN_DENSITY))
def test_density_corpus(norm):
    reports = density_reports(norm)
    assert _digest(r.canonical_json() for r in reports) == GOLDEN_DENSITY[norm]


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_schedule_corpus(strategy):
    assert _digest(schedule_lines(strategy)) == GOLDEN_SCHEDULES[strategy]


def test_corpus_reaches_every_ending():
    # The digests only guard what the corpus exercises: every verdict kind,
    # a budget refused before the first call and one refused mid-schedule.
    endings = set()
    for strategy in STRATEGY_NAMES:
        for report in bernoulli_reports(strategy):
            endings.add((strategy, report.verdict.kind, bool(report.calls)))
    for strategy in ("bincert", "fixedcert"):
        for kind in ("yes", "no"):
            assert (strategy, kind, True) in endings
        assert (strategy, "inconclusive", False) in endings
        assert (strategy, "inconclusive", True) in endings
    assert ("estimate", "inconclusive", False) in endings
    assert {("estimate", "yes", True), ("estimate", "no", True)} <= endings
