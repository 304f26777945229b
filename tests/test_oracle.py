import gc
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quantcert import (
    BernoulliOracle,
    OracleFailure,
    OutOfRangeError,
    SeedSpec,
    SubprocessProperty,
    ThresholdQuery,
    TrialOutcomes,
    run_strategy,
)
import quantcert.oracle
from quantcert.oracle import Oracle, PropertyOracle, Sampler
from quantcert.core import SampleTally, to_unit
from quantcert.robustness import LinfBallSampler
from quantcert.oracle import _SPLIT_TRIALS, BATCH_WORDS
from conftest import CountingOracle

_WORD_MAX = 2**64 - 1

# p in [0, 1]: any float, the endpoints, multiples of 2^-53 (where the cut
# is exact) and their neighbours.
_rates = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 0.5]),
    st.integers(0, 2**53).map(lambda m: m * 2.0**-53),
    st.integers(1, 2**53 - 1).map(lambda m: math.nextafter(m * 2.0**-53, 0.0)),
    st.integers(1, 2**53 - 1).map(lambda m: math.nextafter(m * 2.0**-53, 1.0)),
)


class TestBernoulliOracle:
    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_bad_rate(self, p):
        with pytest.raises(OutOfRangeError):
            BernoulliOracle(p)

    def test_degenerate_rates_are_exact(self, seed):
        assert BernoulliOracle(0.0).draw(seed, 0, 5000).successes == 0
        assert BernoulliOracle(1.0).draw(seed, 0, 5000).successes == 5000

    def test_empty_draw(self, seed):
        tally = BernoulliOracle(0.5).draw(seed, 0, 0)
        assert tally.trials == 0 and tally.successes == 0

    def test_rate_is_calibrated(self, seed):
        # 3 sigma at a million trials; flake odds ~0.3% on a pinned seed,
        # i.e. zero: the draw is deterministic given the seed.
        n = 1_000_000
        rate = BernoulliOracle(0.3).draw(seed, 0, n).successes / n
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(rate - 0.3) < 3 * sigma

    def test_windows_partition_the_call(self, seed):
        oracle = BernoulliOracle(0.47)
        whole = oracle.draw(seed, 0, 1000)
        left = oracle.draw(seed, 0, 400)
        right = oracle.draw(seed, 400, 600)
        assert left.trials + right.trials == whole.trials
        assert left.successes + right.successes == whole.successes

    def test_satisfies_oracle_protocol(self):
        assert isinstance(BernoulliOracle(0.5), Oracle)

    @given(p=_rates, words=st.lists(st.integers(0, _WORD_MAX), max_size=8))
    @example(p=0.0, words=[0, _WORD_MAX])
    @example(p=1.0, words=[0, _WORD_MAX])
    def test_word_cut_matches_unit_comparison(self, p, words):
        # The draw compares raw words with a cut; it must agree word for word
        # with the uniform comparison to_unit(w) < p, including at the cut.
        cut = math.ceil(p * 2**53) << 11
        words = words + [w for w in (cut - 1, cut, cut + 1, _WORD_MAX) if 0 <= w <= _WORD_MAX]
        raw = np.array(words, dtype=np.uint64).reshape(-1, 1)
        np.testing.assert_array_equal(raw < BernoulliOracle(p)._cut, to_unit(raw) < p)

    @given(p=_rates, start=st.integers(0, 1000), k=st.integers(0, 300))
    def test_draw_matches_uniforms(self, p, start, k):
        seed = SeedSpec(99)
        u = to_unit(seed.raw_block(start, k, 1))[:, 0]
        np.testing.assert_array_equal(BernoulliOracle(p).draw(seed, start, k).hits, u < p)

    def test_batch_sizes_follow_words_read(self, center2):
        assert BernoulliOracle(0.5).batch_trials == BATCH_WORDS
        assert PropertyOracle(LinfBallSampler(center2, 0.3), _BatchHalfPlane()).batch_trials == (
            BATCH_WORDS // 2
        )
        wide = LinfBallSampler(np.full(784, 0.5), 0.1)
        assert PropertyOracle(wide, _BatchHalfPlane()).batch_trials == 167


# bincert on (0.1, 2e-3, 0.01), Bernoulli(0.0995), SeedSpec(20240817): 16 calls,
# yes, 494,257 trials in nine draws (141, 2,464, 8,325, 29,961, 103,851,
# 131,072, 131,072, 85,246, 2,125), the four of 2^16 trials or more split;
# recorded with splitting off.
SPLIT_REPORT_SHA256 = "62e41c311f7c0e00437c0c395000084737524ab18d1ae029129765e471358313"


def _unsplit_hits(seed, start, count, p):
    """The hits of trials [start, start + count), from one raw_block."""
    return seed.raw_block(start, count, 1).reshape(count) < (math.ceil(p * 2**53) << 11)


class TestSplitDraw:
    """A draw of 2^16 trials or more splits across two threads; no hit may move."""

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("start", [0, 3, 2**66 + 1], ids=["0", "3", "block-past-2^64"])
    @pytest.mark.parametrize("count", [2**16 - 1, 2**16, 2**16 + 1, 131_072, 200_001])
    def test_split_hits_equal_unsplit(self, seed, start, count, p, monkeypatch):
        asked = []
        raw_block = SeedSpec.raw_block

        def counting(self, start, count, width):
            asked.append(count)
            return raw_block(self, start, count, width)

        monkeypatch.setattr(SeedSpec, "raw_block", counting)
        hits = BernoulliOracle(p).draw(seed, start, count).hits
        # the calling thread reads half the words of a split draw, all of any other
        assert asked == [count // 2 if count >= _SPLIT_TRIALS else count]
        monkeypatch.undo()
        np.testing.assert_array_equal(hits, _unsplit_hits(seed, start, count, p))

    def test_threads_on_distinct_roots(self):
        roots = [3, 5, 2**40 + 1, 2**63 - 1]
        windows = [(0, 131_072), (131_072, 200_001), (7, 2**16)]
        oracle = BernoulliOracle(0.3)
        alone = [[oracle.draw(SeedSpec(r), *w).hits for w in windows] for r in roots]
        results = [None] * len(roots)
        gate = threading.Barrier(len(roots))

        def read(slot):
            gate.wait(timeout=10)
            seed = SeedSpec(roots[slot])
            results[slot] = [oracle.draw(seed, *w).hits for w in windows * 3]

        workers = [threading.Thread(target=read, args=(i,), daemon=True)
                   for i in range(len(roots))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        for want, got in zip(alone, results):
            assert got is not None
            for a, b in zip(want * 3, got):
                np.testing.assert_array_equal(a, b)

    def test_split_run_canonical_hash(self):
        report = run_strategy("bincert", (0.1, 2e-3, 0.01), BernoulliOracle(0.0995),
                              SeedSpec(20240817))
        digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert digest == SPLIT_REPORT_SHA256

    def test_helper_failure_is_raised_in_the_caller(self, seed, monkeypatch):
        def broken(*args):
            raise MemoryError("no room for the second half")

        monkeypatch.setattr(quantcert.oracle, "_words", broken)
        with pytest.raises(MemoryError, match="second half"):
            BernoulliOracle(0.5).draw(seed, 0, 2**17)
        monkeypatch.undo()
        hits = BernoulliOracle(0.5).draw(seed, 0, 2**17).hits
        np.testing.assert_array_equal(hits, _unsplit_hits(seed, 0, 2**17, 0.5))


# Run in a child interpreter: split draws share one helper thread; the
# process then exits, or forks a child that must draw again.
_SPLIT_SCRIPT = """\
import os, signal, sys, threading
import numpy as np
from quantcert import BernoulliOracle, SeedSpec

def helpers():
    return sum(t.name == "quantcert-draw" for t in threading.enumerate())

oracle, seed = BernoulliOracle(0.5), SeedSpec(7)
oracle.draw(seed, 0, 2**16 - 1)
assert helpers() == 0, "a draw that does not split started a helper"
first = oracle.draw(seed, 0, 2**17).hits
oracle.draw(seed, 5, 2**17)
assert helpers() == 1, "split draws must share one helper"
if sys.argv[1] == "fork":
    pid = os.fork()
    if pid == 0:
        signal.alarm(30)  # a child that hangs dies, rather than outlive the test
        again = oracle.draw(seed, 0, 2**17).hits
        os._exit(0 if np.array_equal(again, first) else 3)
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.parametrize("mode", ["exit", pytest.param("fork", marks=pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs os.fork"))])
def test_split_draws_let_the_process_fork_and_exit(mode):
    # The helper thread must not keep the interpreter alive at exit, and a
    # forked child, which has no helper thread, must start its own.
    src = os.path.dirname(os.path.dirname(quantcert.oracle.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _SPLIT_SCRIPT, mode], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr


class _ScalarHalfPlane:
    """Plain-callable predicate: no batch attribute on purpose."""

    def __call__(self, x):
        return x[0] > 0.5


class _BatchHalfPlane:
    def __init__(self, cut=0.5):
        self.cut = cut

    def batch(self, points):
        return points[:, 0] > self.cut


class TestTrialOutcomes:
    # The one place a draw's answer is checked: a malformed one fails typed,
    # with nothing answered, wherever the answer is built.
    @pytest.mark.parametrize(
        "hits",
        [[True, False], np.True_, np.ones((3, 1), dtype=bool), np.arange(3)],
        ids=["list", "0-d", "2-d", "int"],
    )
    def test_rejects_all_but_a_1d_bool_array(self, hits):
        with pytest.raises(OracleFailure, match="answered .* one bool per trial") as info:
            TrialOutcomes(hits)
        assert info.value.partial_tally == SampleTally(0, 0)

    def test_successes_are_counted_once(self):
        hits = np.array([True, False, True, True])
        answer = TrialOutcomes(hits)
        assert (answer.trials, answer.successes) == (4, 3)
        assert vars(answer)["successes"] == 3
        hits[:] = False
        assert answer.successes == 3
        assert TrialOutcomes(np.zeros(0, dtype=bool)).successes == 0


class TestPropertyOracle:
    def test_predicate_without_batch_is_rejected(self, center2):
        with pytest.raises(TypeError, match="batch"):
            PropertyOracle(LinfBallSampler(center2, 0.3), _ScalarHalfPlane())

    def test_empty_draw_skips_sampling(self, seed, center2):
        sampler = LinfBallSampler(center2, 0.3)
        tally = PropertyOracle(sampler, _BatchHalfPlane()).draw(seed, 0, 0)
        assert tally.trials == 0

    def test_sampler_protocol(self, center2):
        assert isinstance(LinfBallSampler(center2, 0.3), Sampler)

    # A predicate that answered one False for a whole batch once certified
    # yes, and one that answered a value short counted a trial it never made.
    @pytest.mark.parametrize(
        "answer",
        [lambda hits: np.False_, lambda hits: hits[:-1], lambda hits: hits[:, None]],
        ids=["scalar", "short", "column"],
    )
    def test_answer_must_hold_one_bool_per_point(self, seed, center2, answer):
        class Miscounts:
            def batch(self, points):
                return answer(points[:, 0] > 0.5)

        oracle = PropertyOracle(LinfBallSampler(center2, 0.3), Miscounts())
        if np.ndim(answer(np.zeros(27, dtype=bool))) == 1:
            # A 1-d answer is a well-formed draw; the stream finds it short.
            assert oracle.draw(seed, 0, 27).trials == 26
        else:
            with pytest.raises(OracleFailure, match="answered shape") as info:
                oracle.draw(seed, 0, 27)
            assert info.value.partial_tally == SampleTally(0, 0)
        with pytest.raises(OracleFailure, match="answered shape") as info:
            run_strategy("bincert", ThresholdQuery(0.1, 0.05, 0.1), oracle, seed)
        assert info.value.partial_tally == SampleTally(0, 0)


def _write_child(tmp_path, body, name="child.py"):
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            """\
            import sys

            def classify(coords):
            %s

            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                coords = [float(v) for v in line.split(",")]
                print(classify(coords), flush=True)
            """
        )
        % textwrap.indent(textwrap.dedent(body), "    ")
    )
    return [sys.executable, str(path)]


class TestSubprocessOracle:
    """PropertyOracle over a SubprocessProperty: an external classifier."""

    def test_matches_in_process_oracle(self, tmp_path, seed, center2):
        # Same sampler, same seed windows: the line protocol must reproduce
        # the in-process predicate verdict for verdict, trial by trial.
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        reference = PropertyOracle(sampler, _BatchHalfPlane())
        with SubprocessProperty(command, reference_label=0) as prop:
            points = sampler.batch(seed, 0, 300)
            np.testing.assert_array_equal(prop.batch(points), _BatchHalfPlane().batch(points))
            got = PropertyOracle(sampler, prop).draw(seed, 0, 300)
        np.testing.assert_array_equal(got.hits, reference.draw(seed, 0, 300).hits)

    def test_each_point_is_answered_once(self, tmp_path):
        # bincert's refuting calls fall inside the stream its proving call
        # drew; the child must still answer each trial's point exactly once.
        count_path = tmp_path / "answered.txt"
        child = tmp_path / "counting_child.py"
        child.write_text(textwrap.dedent(f"""\
            import sys

            answered = 0
            for line in sys.stdin:
                answered += 1
                print(int(float(line.split(",")[0]) > 0.585), flush=True)
            with open({str(count_path)!r}, "w") as out:
                out.write(str(answered))
            """))
        sampler = LinfBallSampler(np.array([0.5, 0.5]), 0.1)
        with SubprocessProperty([sys.executable, str(child)], reference_label=0) as prop:
            report = run_strategy("bincert", ThresholdQuery(0.1, 0.05, 0.1),
                                  PropertyOracle(sampler, prop), SeedSpec(7))
        sizes = [call.plan.n_samples for call in report.calls]
        assert any(n < max(sizes[:i]) for i, n in enumerate(sizes) if i)
        assert int(count_path.read_text()) == report.total_samples

    def test_windows_partition_the_call(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty(command, reference_label=0) as prop:
            oracle = PropertyOracle(sampler, prop)
            whole = oracle.draw(seed, 0, 200)
            left = oracle.draw(seed, 0, 80)
            right = oracle.draw(seed, 80, 120)
        assert left.successes + right.successes == whole.successes

    def test_string_command_is_split(self, tmp_path, seed, center2):
        argv = _write_child(tmp_path, "return 0")
        command = " ".join(argv)
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty(command, reference_label=0) as prop:
            assert PropertyOracle(sampler, prop).draw(seed, 0, 10).successes == 0

    def test_spawn_failure(self, tmp_path):
        with pytest.raises(OracleFailure, match="could not start") as info:
            SubprocessProperty([str(tmp_path / "no-such-binary")], reference_label=0)
        assert info.value.partial_tally is None

    def test_rejects_negative_reference(self):
        with pytest.raises(OutOfRangeError):
            SubprocessProperty([sys.executable, "-c", "pass"], -1)

    # NaN once raised a bare ValueError and 1.5 became label 1.
    @pytest.mark.parametrize("label", [math.nan, 1.5, "1", True, None])
    def test_reference_label_must_be_an_integer(self, label):
        with pytest.raises(OutOfRangeError, match="reference_label"):
            SubprocessProperty([sys.executable, "-c", "pass"], label)

    def test_numpy_reference_label_is_accepted(self):
        with SubprocessProperty([sys.executable, "-c", "pass"], np.int64(3)) as prop:
            assert prop.reference_label == 3 and type(prop.reference_label) is int

    @pytest.mark.parametrize("command", ["", "   ", []])
    def test_rejects_empty_command(self, command):
        with pytest.raises(OutOfRangeError, match="names no program"):
            SubprocessProperty(command, reference_label=0)

    @pytest.mark.parametrize("command", [5, None, ["python", 3], (b"python", 1.5)])
    def test_rejects_command_of_wrong_type(self, command):
        # Checked before a child starts, so no pipe is opened to leak.
        with pytest.raises(OutOfRangeError, match="is neither a string nor a sequence"):
            SubprocessProperty(command, reference_label=0)

    @pytest.mark.parametrize("command", [{"true": 1}, {"true"}, iter(["true"])])
    def test_unordered_or_one_shot_command_starts_no_child(self, command, monkeypatch):
        # A mapping or set has no argument order, and an iterator is not a
        # sequence: each is refused before any Popen.
        import subprocess

        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: started.append(args))
        with pytest.raises(OutOfRangeError, match="is neither a string nor a sequence"):
            SubprocessProperty(command, reference_label=0)
        assert started == []

    def test_path_arguments_start_the_child(self, tmp_path, seed, center2):
        executable, script = _write_child(tmp_path, "return int(coords[0] > 0.5)")
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty([pathlib.Path(executable), pathlib.Path(script)], 0) as prop:
            outcomes = PropertyOracle(sampler, prop).draw(seed, 0, 50)
        points = sampler.batch(seed, 0, 50)
        assert np.array_equal(outcomes.hits, points[:, 0] > 0.5)

    def test_non_integer_reply(self, tmp_path, seed, center2):
        command = _write_child(
            tmp_path, 'return "banana" if coords[0] > 0.5 else 0'
        )
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty(command, reference_label=0) as prop:
            with pytest.raises(OracleFailure, match="expected an integer label") as info:
                PropertyOracle(sampler, prop).draw(seed, 0, 300)
        partial = info.value.partial_tally
        assert partial is not None and partial.trials < 300

    def test_negative_label_reply(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return -4")
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty(command, reference_label=0) as prop:
            with pytest.raises(OracleFailure, match="labels must be nonnegative") as info:
                PropertyOracle(sampler, prop).draw(seed, 0, 5)
        assert info.value.partial_tally == SampleTally(0, 0)

    def test_child_death_carries_partial_tally(self, tmp_path, seed, center2):
        command = _write_child(
            tmp_path,
            """\
            global answered
            answered += 1
            if answered > 7:
                sys.exit(3)
            return 1
            """,
        )
        # prepend the counter the body mutates
        path = tmp_path / "child.py"
        path.write_text("answered = 0\n" + path.read_text())
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessProperty(command, reference_label=0) as prop:
            with pytest.raises(
                OracleFailure, match="closed its output after 7 of 50 replies"
            ) as info:
                PropertyOracle(sampler, prop).draw(seed, 0, 50)
        partial = info.value.partial_tally
        assert partial is not None
        assert partial.trials == 7
        assert partial.successes == 7

    def test_child_death_mid_run_tallies_the_stream(self, tmp_path, seed, center2):
        # The child dies a few replies into the run's first draw that does
        # not start at trial 0: the failure's tally counts the stream's
        # trials up to the failed reply, offset by that draw's start.
        sampler = LinfBallSampler(center2, 0.3)
        query = ThresholdQuery(0.1, 0.05, 0.1)
        inner = PropertyOracle(sampler, _BatchHalfPlane(0.7))
        mirror = CountingOracle(inner, batch_trials=inner.batch_trials)
        run_strategy("bincert", query, mirror, seed)
        replies = 0
        for start, count in mirror.windows:
            if start > 0:
                break
            replies += count
        assert start > 0 and count > 5
        command = _write_child(
            tmp_path,
            f"""\
            global answered
            answered += 1
            if answered > {replies + 5}:
                sys.exit(3)
            return 1 if coords[0] > 0.7 else 0
            """,
        )
        path = tmp_path / "child.py"
        path.write_text("answered = 0\n" + path.read_text())
        with SubprocessProperty(command, reference_label=0) as prop:
            with pytest.raises(
                OracleFailure, match=f"closed its output after 5 of {count} replies"
            ) as info:
                run_strategy("bincert", query, PropertyOracle(sampler, prop), seed)
        hits = inner.draw(seed, 0, start + 5).successes
        assert info.value.partial_tally == SampleTally(start + 5, hits)

    def test_close_is_idempotent(self, tmp_path):
        command = _write_child(tmp_path, "return 0")
        prop = SubprocessProperty(command, 0)
        prop.close()
        prop.close()

    def test_close_releases_both_pipes(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return 0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prop = SubprocessProperty(command, 0)
            PropertyOracle(LinfBallSampler(center2, 0.3), prop).draw(seed, 0, 10)
            prop.close()
            del prop
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_batch_larger_than_the_reply_pipe(self, tmp_path, seed, center2):
        # The child flushes every reply; a batch written in one piece before
        # any reply is read fills the child's stdout pipe and blocks both.
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        prop = SubprocessProperty(command, reference_label=0)
        oracle = PropertyOracle(sampler, prop)
        k, window = 40_000, 8_192
        got = {}

        def draw_all():
            got["whole"] = oracle.draw(seed, 0, k)
            got["parts"] = [
                oracle.draw(seed, s, min(window, k - s))
                for s in range(0, k, window)
            ]

        worker = threading.Thread(target=draw_all, daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        if worker.is_alive():
            prop._proc.kill()
            worker.join(timeout=5.0)
        prop.close()
        assert not worker.is_alive() and "parts" in got
        assert got["whole"].trials == k
        assert got["whole"].successes == sum(t.successes for t in got["parts"])
        assert 0 < got["whole"].successes < k
