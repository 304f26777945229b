import copy
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Philox, SeedSequence

from quantcert import (
    BernoulliOracle,
    OutOfRangeError,
    ResourceLimits,
    SeedSpec,
    SubprocessProperty,
    ThresholdQuery,
    adversarial_hardness,
    certify_density,
    load_model,
    make_sampler,
    run_strategy,
)
from quantcert.core import SampleTally, Verdict, to_open_unit, to_unit, validate_query
from quantcert.robustness import MisclassificationProperty
from quantcert.sim import complexity_sweep
from quantcert.strategy import schedule, schedule_law
from quantcert.tester import plan_tester
from binomial_reference import DomainError, chernoff_tail
from conftest import CountingOracle, linear_model, linear_model_doc


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


class TestValidateQuery:
    def test_accepts_triple(self):
        q = validate_query((0.1, 0.01, 0.05))
        assert isinstance(q, ThresholdQuery)
        assert (q.theta, q.eta, q.delta) == (0.1, 0.01, 0.05)

    def test_validated_query_returned_unchanged(self):
        q = validate_query((0.1, 0.01, 0.05))
        assert validate_query(q) is q

    def test_upper_is_stable(self):
        q = validate_query((0.3, 0.01, 0.05))
        assert q.upper == q.upper
        assert q.upper == 0.3 + 0.01

    def test_delta_one_accepted(self):
        # vacuous confidence is allowed at the type level
        assert validate_query((0.1, 0.1, 1.0)).delta == 1.0

    @pytest.mark.parametrize(
        "triple",
        [(-0.1, 0.1, 0.1), (1.1, 0.1, 0.1), (0.1, 0.0, 0.1), (0.1, 1.0, 0.1),
         (0.1, -0.2, 0.1), (0.1, 0.1, 0.0), (0.1, 0.1, -0.5), (0.1, 0.1, 1.5),
         # not three real numbers
         (0.1, 0.05), (0.1, 0.05, 0.1, 0.1), None, 0.1, ("0.1", "0.05", "0.1"),
         (0.1, None, 0.1), "abc",
         # theta + eta rounds to theta, or eta * eta underflows to 0
         (0.1, 1e-300, 0.1), (0.5, 1e-17, 0.1), (0.0, 1e-200, 0.1), (0.0, 5e-324, 0.1),
         # a bool is not a real here: False would be theta 0, True delta 1
         (False, 0.05, 0.1), (0.1, 0.05, True)],
    )
    def test_out_of_range(self, triple):
        with pytest.raises(OutOfRangeError):
            validate_query(triple)

    @pytest.mark.parametrize("triple", [(0.7, 0.4, 0.1), (1.0, 0.001, 0.1), (0.95, 0.1, 0.5)])
    def test_degenerate(self, triple):
        with pytest.raises(OutOfRangeError, match=r"theta \+ eta = .* exceeds 1"):
            validate_query(triple)

    @given(
        theta=st.floats(0.0, 0.9),
        eta=st.floats(0.001, 0.1),
        delta=st.floats(0.001, 1.0, exclude_min=False),
    )
    def test_valid_region_roundtrip(self, theta, eta, delta):
        if theta + eta > 1.0 or not 0 < delta <= 1:
            return
        q = validate_query((theta, eta, delta))
        assert validate_query(q) is q

    @pytest.mark.parametrize("theta", [0, np.int64(0), np.float32(0.0), -0.0],
                             ids=["int", "numpy-int", "numpy-float", "negative-zero"])
    def test_fields_print_as_floats(self, theta):
        # A query built from ints or numpy reals is the query the tuple form
        # builds, and -0.0 is stored as 0.0, so its report replays as 0's.
        built = ThresholdQuery(theta, 0.1, 0.1)
        assert type(built.theta) is float
        reports = [run_strategy("bincert", q, BernoulliOracle(0.02), SeedSpec(7))
                   for q in (built, (0, 0.1, 0.1))]
        assert reports[0].canonical_json() == reports[1].canonical_json()
        assert '"theta":0.0' in reports[0].canonical_json()


_CENTER = np.array([0.5, 0.5])
_QUERY = ThresholdQuery(0.1, 0.05, 0.1)

# (parameter, call with the value under test): every real parameter a
# caller can pass, each checked by core._check_real where it is stored.
REAL_PARAMETERS = [
    ("theta", lambda v: ThresholdQuery(v, 0.05, 0.1)),
    ("eta", lambda v: ThresholdQuery(0.1, v, 0.1)),
    ("delta", lambda v: ThresholdQuery(0.1, 0.05, v)),
    ("delta", lambda v: validate_query((0.1, 0.05, v))),
    ("max_wall_ms", lambda v: ResourceLimits(max_wall_ms=v)),
    ("p", lambda v: BernoulliOracle(v)),
    ("epsilon", lambda v: make_sampler("linf", _CENTER, v)),
    ("epsilon", lambda v: make_sampler("l2", _CENTER, v)),
    ("epsilon", lambda v: adversarial_hardness(
        linear_model(0.62), _CENTER, _QUERY, SeedSpec(1), eps_grid=[v])),
    ("p", lambda v: complexity_sweep(["bincert"], _QUERY, [v])),
    ("delta_call", lambda v: plan_tester(0.1, 0.2, v)),
    ("theta1", lambda v: plan_tester(v, 0.2, 0.1)),
    ("theta2", lambda v: plan_tester(0.1, v, 0.1)),
    ("p", lambda v: schedule_law(schedule("bincert", _QUERY)[1], v)),
]


def test_every_real_parameter_has_one_rule():
    # A bool, a string, None and NaN are not real numbers in any range, nor
    # is an int beyond every float; max_wall_ms=None is no limit at all.
    missed = []
    for name, call in REAL_PARAMETERS:
        for value in (True, False, "0.1", None, math.nan, 10**400, -10**400):
            if name == "max_wall_ms" and value is None:
                continue
            try:
                call(value)
            except Exception as exc:
                if not (isinstance(exc, OutOfRangeError)
                        and str(exc).startswith(f"{name} must sit in ")):
                    missed.append((name, value, f"{type(exc).__name__}: {exc}"))
            else:
                missed.append((name, value, "accepted"))
    assert missed == []


def _run_with_batch(batch_trials):
    oracle = CountingOracle(BernoulliOracle(0.02))
    oracle.batch_trials = batch_trials
    return run_strategy("bincert", _QUERY, oracle, SeedSpec(1))


def _model_with(**fields):
    doc = json.loads(linear_model_doc(0.62))
    for name, value in fields.items():
        if name == "input_dim":
            doc[name] = value
        else:
            doc["layers"][0][name] = value
    return load_model(json.dumps(doc))


# (parameter, call with the value under test): every integer parameter a
# caller can pass, each checked by core._check_int where it is stored or used.
INTEGER_PARAMETERS = [
    ("root_seed", lambda v: SeedSpec(v)),
    ("child index", lambda v: SeedSpec(1).child(v)),
    ("max_samples", lambda v: ResourceLimits(max_samples=v)),
    ("batch_trials", _run_with_batch),
    ("reference_label", lambda v: MisclassificationProperty(linear_model(0.62), v)),
    ("reference_label", lambda v: SubprocessProperty(["true"], v)),
    ("trials", lambda v: SampleTally(v, 0)),
    ("successes", lambda v: SampleTally(5, v)),
    ("start", lambda v: SeedSpec(1).raw_block(v, 2, 1)),
    ("count", lambda v: SeedSpec(1).raw_block(0, v, 1)),
    ("width", lambda v: SeedSpec(1).raw_block(0, 2, v)),
    ("input_dim", lambda v: _model_with(input_dim=v)),
    ("dense layer 0 rows", lambda v: _model_with(rows=v)),
    ("dense layer 0 cols", lambda v: _model_with(cols=v)),
]


def test_every_integer_parameter_has_one_rule():
    # A bool, a float, a string and None are not integers, even where they
    # would convert to one; max_samples=None is no cap at all.
    missed = []
    for name, call in INTEGER_PARAMETERS:
        for value in (True, 1.5, "1", None):
            if name == "max_samples" and value is None:
                continue
            try:
                call(value)
            except Exception as exc:
                if not (isinstance(exc, OutOfRangeError)
                        and str(exc).startswith(f"{name} must be an integer")):
                    missed.append((name, value, f"{type(exc).__name__}: {exc}"))
            else:
                missed.append((name, value, "accepted"))
    assert missed == []


def _hardness(**choice):
    return adversarial_hardness(
        linear_model(0.62), _CENTER, _QUERY, SeedSpec(1), eps_grid=[0.1], **choice)


# (parameter, a valid name, call with the value under test): every named
# choice a caller can pass, each checked by core._check_choice where it is used.
NAMED_PARAMETERS = [
    ("strategy", "bincert",
     lambda v: run_strategy(v, _QUERY, BernoulliOracle(0.02), SeedSpec(1))),
    ("strategy", "bincert", lambda v: schedule(v, _QUERY)),
    ("strategy", "bincert", lambda v: complexity_sweep([v], _QUERY, [0.5])),
    ("strategy", "bincert", lambda v: certify_density(
        linear_model(0.62), _CENTER, _QUERY, SeedSpec(1), 0.1, strategy=v)),
    ("strategy", "bincert", lambda v: _hardness(strategy=v)),
    ("norm", "linf", lambda v: make_sampler(v, _CENTER, 0.1)),
    ("method", "sweep", lambda v: _hardness(method=v)),
    ("kind", "yes", lambda v: Verdict(v)),
    ("reason", "timeout", lambda v: Verdict("inconclusive", v)),
]


def test_every_named_parameter_has_one_rule():
    # Only a string can be a name: None, numbers, bools, and lists or dicts,
    # unhashable, fail the same way as an unknown name, even holding a valid one.
    missed = []
    for name, valid, call in NAMED_PARAMETERS:
        call(valid)
        for value in ("nope", None, 3, True, [valid], {valid: valid}):
            try:
                call(value)
            except Exception as exc:
                if not (isinstance(exc, OutOfRangeError)
                        and str(exc).startswith(f"{name} must be ")):
                    missed.append((name, value, f"{type(exc).__name__}: {exc}"))
            else:
                missed.append((name, value, "accepted"))
    assert missed == []


def test_a_numpy_name_is_its_plain_string():
    reports = [run_strategy(name, _QUERY, BernoulliOracle(0.02), SeedSpec(7))
               for name in (np.str_("bincert"), "bincert")]
    assert reports[0].canonical_json() == reports[1].canonical_json()
    assert type(reports[0].strategy) is str
    assert type(Verdict(np.str_("yes")).kind) is str
    assert type(make_sampler(np.str_("l2"), _CENTER, 0.1)).norm == "l2"


# ---------------------------------------------------------------------------
# verdicts and tallies
# ---------------------------------------------------------------------------


class TestVerdict:
    def test_constructors(self):
        assert Verdict("yes").kind == "yes"
        assert Verdict("no").kind == "no"
        v = Verdict("inconclusive", "timeout")
        assert v.kind == "inconclusive" and v.reason == "timeout"

    def test_inconclusive_requires_reason(self):
        with pytest.raises(OutOfRangeError):
            Verdict("inconclusive")
        with pytest.raises(OutOfRangeError):
            Verdict("inconclusive", "because")

    def test_decisive_rejects_reason(self):
        with pytest.raises(OutOfRangeError):
            Verdict("yes", "timeout")


class TestSampleTally:
    def test_p_hat_derived(self):
        assert SampleTally(200, 30).p_hat == 30 / 200
        assert SampleTally(0, 0).p_hat == 0.0

    # An oracle's partial tally is outside input the stream adds into its
    # own: a float or a bool is not a count.
    @pytest.mark.parametrize(
        "trials,successes",
        [(10, 11), (10, -1), (-1, 0), (2.5, 1), (True, False), (3, 1.0), (3.0, 1)],
    )
    def test_bounds(self, trials, successes):
        with pytest.raises(OutOfRangeError):
            SampleTally(trials, successes)

    def test_counts_are_stored_as_ints(self):
        tally = SampleTally(np.int64(3), np.uint8(1))
        assert tally == SampleTally(3, 1)
        assert type(tally.trials) is int and type(tally.successes) is int

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_rate_in_unit_interval(self, trials, successes):
        if successes > trials:
            return
        assert 0.0 <= SampleTally(trials, successes).p_hat <= 1.0


# ---------------------------------------------------------------------------
# tail bound
# ---------------------------------------------------------------------------


class TestChernoffTail:
    def test_upper_hits_e_inverse(self):
        # n eta^2 / (2 mu + eta) = 110 * 0.01 / 1.1 = 1
        assert chernoff_tail(0.5, 0.1, 110, "upper") == pytest.approx(math.exp(-1), rel=1e-12)

    def test_lower_hits_e_inverse(self):
        # n eta^2 / (2 mu) = 100 * 0.01 / 1.0 = 1
        assert chernoff_tail(0.5, 0.1, 100, "lower") == pytest.approx(math.exp(-1), rel=1e-12)

    def test_mu_zero_rejected(self):
        with pytest.raises(DomainError):
            chernoff_tail(0.0, 0.1, 10)

    @pytest.mark.parametrize(
        "mu,eta,n,side",
        [(1.0, 0.0, 10, "upper"), (1.2, 0.1, 10, "upper"), (-0.1, 0.1, 10, "upper"),
         (0.5, 0.1, 0, "upper"), (0.5, 0.1, 10, "middle")],
    )
    def test_domain_violations(self, mu, eta, n, side):
        with pytest.raises(DomainError):
            chernoff_tail(mu, eta, n, side)

    def test_monotone_in_n_eta_and_sides(self):
        # dense grid; the bound must shrink as n or eta grow, and the upper
        # (2 mu + eta) form can never undercut the lower (2 mu) form
        checked = 0
        for mu in np.linspace(0.05, 1.0, 8):
            for eta in np.linspace(0.01, 0.3, 5):
                for n in (10, 50, 250, 1000):
                    up = chernoff_tail(mu, eta, n, "upper")
                    lo = chernoff_tail(mu, eta, n, "lower")
                    # exp may underflow to exactly zero at extreme exponents
                    assert 0.0 <= lo <= up <= 1.0
                    assert chernoff_tail(mu, eta, 4 * n, "upper") < up
                    assert chernoff_tail(mu, min(0.9, eta * 2), n, "upper") <= up
                    checked += 1
        assert checked >= 100


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


class TestSeedSpec:
    def test_root_seed_range(self):
        with pytest.raises(OutOfRangeError):
            SeedSpec(-1)
        with pytest.raises(OutOfRangeError):
            SeedSpec(2**63)
        for not_int in (1.5, 7.0, "7", None, True):
            with pytest.raises(OutOfRangeError, match="root_seed must be an integer"):
                SeedSpec(not_int)
        assert SeedSpec.fresh().root_seed >= 0

    def test_child_index_range(self):
        # 1.5 once died in numpy with a TypeError, and True passed as index 1.
        for bad in (-1, 1.5, True, "1"):
            with pytest.raises(OutOfRangeError, match="child index"):
                SeedSpec(5).child(bad)
        assert SeedSpec(5).child(np.int64(3)) == SeedSpec(5).child(3)

    def test_numpy_integer_seed_replays_as_int(self):
        reports = [
            run_strategy(
                "bincert", (0.1, 0.05, 0.1), BernoulliOracle(0.13), SeedSpec(seed)
            ).canonical_json()
            for seed in (np.int64(7), 7)
        ]
        assert reports[0] == reports[1]

    def test_same_window_same_words(self):
        s = SeedSpec(99)
        a = s.raw_block(17, 50, 4)
        b = s.raw_block(17, 50, 4)
        assert np.array_equal(a, b)

    def test_window_addressing_matches_slicing(self):
        # trials [s, s+k) must see the same words whether drawn alone or as
        # part of a bigger batch, for every width and offset
        s = SeedSpec(1234)
        for width in (1, 2, 5):
            whole = s.raw_block(0, 64, width)
            for start, count in [(0, 64), (1, 3), (7, 11), (33, 31), (63, 1)]:
                part = s.raw_block(start, count, width)
                assert np.array_equal(part, whole[start : start + count])

    def test_child_specs_differ(self):
        s = SeedSpec(5)
        kids = {s.child(i).root_seed for i in range(16)}
        assert len(kids) == 16
        assert s.child(3).root_seed == s.child(3).root_seed

    def test_unit_conversions(self):
        s = SeedSpec(7)
        raw = s.raw_block(0, 4096, 1)
        u = to_unit(raw)
        v = to_open_unit(raw)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert np.all((0.0 < v) & (v < 1.0))

    @pytest.mark.parametrize("width", [784, 785])
    def test_unit_conversions_match_reference_formulas(self, width):
        # Bit for bit, on whole windows and on the strided last column (an
        # l2 sampler's radius column at width 785), leaving the input as is.
        spec = SeedSpec(PIN_SEED)
        for start in (0, 17):
            raw = spec.raw_block(start, 9, width)
            before = raw.copy()
            for words in (raw, raw[:, -1]):
                half_open = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
                open_ = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
                assert to_unit(words).tobytes() == half_open.tobytes()
                assert to_open_unit(words).tobytes() == open_.tobytes()
            assert np.array_equal(raw, before)

    def test_open_unit_extremes_stay_open(self):
        # Words at both ends and on each side of the 12 bits dropped.
        words = np.array(
            [0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64
        )
        u = to_open_unit(words)
        expected = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        assert u.tobytes() == expected.tobytes()
        assert np.all((0.0 < u) & (u < 1.0))
        assert u[0] == 2.0**-53 and u[-1] == 1.0 - 2.0**-53

    def test_derivation_recorded(self):
        assert SeedSpec.DERIVATION.startswith("philox4x64: one stream per run, spawn_key=(0,)")


# ---------------------------------------------------------------------------
# replay pins: a change in numpy's Philox or SeedSequence, or in how a spec
# positions its stream, must fail here rather than silently alter replays
# ---------------------------------------------------------------------------

PIN_SEED = 20240817

# (start, count, width) -> the window's words, row-major
GOLDEN_WORDS = {
    (0, 4, 1): [
        2907666258304881725, 4915901275895167629,
        4140231687002380480, 2048417282762733141,
    ],
    # start * width = 3: the window opens mid counter block
    (3, 5, 1): [
        2048417282762733141, 16724657523310620272, 16302392863822306923,
        17415794281915526268, 13611658981642946423,
    ],
    (2, 3, 3): [
        17415794281915526268, 13611658981642946423, 3925048546024620721,
        7213737065396601897, 17669103724561030068, 9914127702144188068,
        13546438442950738957, 5695745686319737186, 1635689982924844310,
    ],
    (1000003, 3, 2): [
        13847008770817922384, 15380223475404762975, 5288531908730182842,
        13661267189337428909, 10806384597122557849, 14154256916893116330,
    ],
}

# an l2 sampler's width on a 784-d input: 785 words a trial, 1570 in all
GOLDEN_WIDE = {
    "window": (1, 2, 785),
    "head": [1885598034715544661, 3852306586544303182, 13180254624866578441],
    "tail": [17639367380270286483, 4027745775399175517, 10048733208357198096],
    "sha256": "885ae0a9829a837445bf7cd5c15549d1412abd76b1a61938af7b51c82ac1e6db",
}

# bincert on (0.1, 0.05, 0.1), Bernoulli(0.13), SeedSpec(PIN_SEED): 7 calls, yes
# at the final call, 664 trials.
GOLDEN_REPORT_SHA256 = "cef5e0adb3f2a38d65b8d9ac9f9b455dcc8379cc23c5e25722258031cbccafb3"


def _words_sha256(words):
    return hashlib.sha256(np.ascontiguousarray(words, dtype="<u8").tobytes()).hexdigest()


class TestReplayPins:
    @pytest.mark.parametrize("window", sorted(GOLDEN_WORDS))
    def test_raw_block_words(self, window):
        words = SeedSpec(PIN_SEED).raw_block(*window)
        assert words.shape == window[1:]
        assert [int(w) for w in words.ravel()] == GOLDEN_WORDS[window]

    def test_wide_window_words(self):
        words = SeedSpec(PIN_SEED).raw_block(*GOLDEN_WIDE["window"]).ravel()
        assert [int(w) for w in words[:3]] == GOLDEN_WIDE["head"]
        assert [int(w) for w in words[-3:]] == GOLDEN_WIDE["tail"]
        assert _words_sha256(words) == GOLDEN_WIDE["sha256"]

    def test_pins_survive_one_spec_reading_them_all(self):
        # the same spec serving every window in turn must not drift
        spec = SeedSpec(PIN_SEED)
        for window in sorted(GOLDEN_WORDS) + [GOLDEN_WIDE["window"]]:
            words = spec.raw_block(*window).ravel()
            if window in GOLDEN_WORDS:
                assert [int(w) for w in words] == GOLDEN_WORDS[window]
            else:
                assert _words_sha256(words) == GOLDEN_WIDE["sha256"]

    @pytest.mark.parametrize("batch_trials", [1, 7, 128, 4096])
    def test_bincert_canonical_hash(self, batch_trials):
        oracle = CountingOracle(BernoulliOracle(0.13), batch_trials=batch_trials)
        report = run_strategy("bincert", (0.1, 0.05, 0.1), oracle, SeedSpec(PIN_SEED))
        digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert digest == GOLDEN_REPORT_SHA256


# ---------------------------------------------------------------------------
# reading order: one spec serving many windows must return exactly what a
# fresh spec returns for each window alone, and keep nothing but its seed
# ---------------------------------------------------------------------------

# A step either continues the last window ("seq", count), switches width
# at the first trial at or after the last window's end ("rewidth", count,
# width), or addresses any window at all ("jump", start, count, width).
_window_steps = st.lists(
    st.one_of(
        st.tuples(st.just("seq"), st.integers(0, 40)),
        st.tuples(st.just("rewidth"), st.integers(0, 40), st.sampled_from([1, 2, 3, 4, 785])),
        st.tuples(
            st.just("jump"),
            st.integers(0, 300),
            st.integers(0, 40),
            st.sampled_from([1, 2, 3, 5, 785]),
        ),
    ),
    min_size=1,
    max_size=25,
)


def _windows(steps):
    start, count, width = 0, 0, 1
    for step in steps:
        if step[0] == "seq":
            start, count = start + count, step[1]
        elif step[0] == "rewidth":
            next_word = (start + count) * width
            count, width = step[1], step[2]
            start = -(-next_word // width)
        else:
            start, count, width = step[1:]
        yield start, count, width


class TestReadCursor:
    @given(root=st.integers(0, 2**63 - 1), steps=_window_steps)
    def test_any_window_sequence_matches_fresh_specs(self, root, steps):
        spec = SeedSpec(root)
        for window in _windows(steps):
            got = spec.raw_block(*window)
            want = SeedSpec(root).raw_block(*window)
            assert got.shape == want.shape == window[1:]
            assert np.array_equal(got, want)

    def test_cursor_is_not_state(self):
        used = SeedSpec(31)
        used.raw_block(0, 16, 2)
        clean = SeedSpec(31)
        assert used == clean and hash(used) == hash(clean)
        assert repr(used) == repr(clean) == "SeedSpec(root_seed=31)"
        assert pickle.dumps(used) == pickle.dumps(clean)
        for twin in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert np.array_equal(twin.raw_block(16, 4, 2), clean.raw_block(16, 4, 2))

    def test_reads_leave_only_the_root_seed(self):
        spec = SeedSpec(41)
        for window in [(0, 5, 3), (5, 7, 3), (0, 2, 785), (12, 0, 3), (9, 4, 1)]:
            spec.raw_block(*window)
        assert vars(spec) == {"root_seed": 41}

    def test_threads_sharing_a_spec_get_fresh_spec_words(self):
        windows = [(start, 5, 3) for start in range(0, 1000, 5)]
        want = [SeedSpec(77).raw_block(*w) for w in windows]
        spec = SeedSpec(77)
        gate = threading.Barrier(4)
        results = [None] * 4

        def read(slot):
            gate.wait(timeout=10)
            results[slot] = [spec.raw_block(*w) for w in windows]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        for got in results:
            assert got is not None and len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _numpy_words(root, start, count, width):
    """The window as numpy's own path gives it: a generator seeded from the
    run's spawn key, advanced to the window's counter block, then sliced."""
    bits = Philox(SeedSequence(root, spawn_key=(0,)))
    blocks, offset = divmod(start * width, 4)
    bits.advance(blocks)
    return bits.random_raw(offset + count * width)[offset:].reshape(count, width)


class TestNumpyPath:
    """raw_block re-keys and positions one generator per thread; each window
    must equal what a fresh, advanced numpy generator gives."""

    @settings(max_examples=60)
    @given(
        roots=st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2, unique=True),
        windows=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 5000), st.integers(2**62, 2**72),
                          st.integers(2**252, 2**260)),
                st.integers(0, 9),
                st.sampled_from([1, 3, 784, 785]),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_two_roots_interleaved_match_numpy(self, roots, windows):
        # Alternating roots on one thread: neither a cached key nor the
        # reused generator may carry one root's stream into the other's.
        for window in windows:
            for root in roots:
                got = SeedSpec(root).raw_block(*window)
                assert got.shape == window[1:]
                assert np.array_equal(got, _numpy_words(root, *window))

    @pytest.mark.parametrize("start", [2**66 - 1, 2**66, 2**70, 2**70 + 3])
    def test_block_index_past_two_to_the_64(self, start):
        for root in (0, 2**63 - 1):
            got = SeedSpec(root).raw_block(start, 9, 1)
            assert np.array_equal(got, _numpy_words(root, start, 9, 1))

    def test_threads_on_distinct_roots(self):
        roots = [3, 5, 2**40 + 1, 2**63 - 1]
        windows = [(start, 3, width) for start in range(0, 400, 7) for width in (1, 3, 785)]
        results = [None] * len(roots)
        gate = threading.Barrier(len(roots))

        def read(slot):
            gate.wait(timeout=10)
            spec = SeedSpec(roots[slot])
            results[slot] = [spec.raw_block(*w) for w in windows]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(i,)) for i in range(len(roots))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        for root, got in zip(roots, results):
            assert got is not None
            for window, words in zip(windows, got):
                assert np.array_equal(words, _numpy_words(root, *window))


def test_bernoulli_runs_do_not_import_scipy():
    # scipy.special is imported only where l2 sampling or a sigmoid layer
    # needs it; a fresh interpreter running a Bernoulli bincert never loads it.
    import quantcert

    src = os.path.dirname(os.path.dirname(quantcert.__file__))
    code = (
        "import sys, quantcert as q\n"
        "q.run_strategy('bincert', (0.1, 0.05, 0.1), q.BernoulliOracle(0.13), q.SeedSpec(1))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
