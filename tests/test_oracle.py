import gc
import math
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quantcert import (
    BernoulliOracle,
    ChildExitError,
    LinfBallSampler,
    Oracle,
    OutOfRangeError,
    ProtocolViolationError,
    SampleTally,
    Sampler,
    SeedSpec,
    SpawnFailureError,
    SubprocessOracle,
)
from quantcert.oracle import PropertyOracle
from quantcert.core import to_unit
from quantcert.oracle import BATCH_WORDS

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
        assert BernoulliOracle(0.0).draw(5000, 0, seed).successes == 0
        assert BernoulliOracle(1.0).draw(5000, 0, seed).successes == 5000

    def test_empty_draw(self, seed):
        tally = BernoulliOracle(0.5).draw(0, 0, seed)
        assert tally.trials == 0 and tally.successes == 0

    def test_rate_is_calibrated(self, seed):
        # 3 sigma at a million trials; flake odds ~0.3% on a pinned seed,
        # i.e. zero: the draw is deterministic given the seed.
        n = 1_000_000
        tally = BernoulliOracle(0.3).draw(n, 0, seed)
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(tally.p_hat - 0.3) < 3 * sigma

    def test_windows_partition_the_call(self, seed):
        oracle = BernoulliOracle(0.47)
        whole = oracle.draw(1000, 3, seed)
        left = oracle.draw(400, 3, seed, start=0)
        right = oracle.draw(600, 3, seed, start=400)
        assert left.trials + right.trials == whole.trials
        assert left.successes + right.successes == whole.successes

    def test_calls_use_distinct_streams(self, seed):
        oracle = BernoulliOracle(0.5)
        a = oracle.draw(2000, 0, seed)
        b = oracle.draw(2000, 1, seed)
        assert a.successes != b.successes

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
        np.testing.assert_array_equal(BernoulliOracle(p)._hits(raw), to_unit(raw) < p)

    @given(p=_rates, start=st.integers(0, 1000), k=st.integers(0, 300))
    def test_draw_matches_uniforms(self, p, start, k):
        seed = SeedSpec(99)
        u = seed.uniforms(4, start, k)[:, 0]
        assert BernoulliOracle(p).draw(k, 4, seed, start=start) == SampleTally(
            k, int(np.count_nonzero(u < p))
        )

    def test_batch_sizes_follow_words_read(self, center2):
        assert BernoulliOracle(0.5).batch_trials == BATCH_WORDS
        assert PropertyOracle(LinfBallSampler(center2, 0.3), _BatchHalfPlane()).batch_trials == (
            BATCH_WORDS // 2
        )
        wide = LinfBallSampler(np.full(784, 0.5), 0.1)
        assert PropertyOracle(wide, _BatchHalfPlane()).batch_trials == 167


class _ScalarHalfPlane:
    """Plain-callable predicate: no batch attribute on purpose."""

    def __call__(self, x):
        return x[0] > 0.5


class _BatchHalfPlane:
    def batch(self, points):
        return points[:, 0] > 0.5


class TestPropertyOracle:
    def test_predicate_without_batch_is_rejected(self, center2):
        with pytest.raises(TypeError, match="batch"):
            PropertyOracle(LinfBallSampler(center2, 0.3), _ScalarHalfPlane())

    def test_empty_draw_skips_sampling(self, seed, center2):
        sampler = LinfBallSampler(center2, 0.3)
        tally = PropertyOracle(sampler, _BatchHalfPlane()).draw(0, 0, seed)
        assert tally.trials == 0

    def test_sampler_protocol(self, center2):
        assert isinstance(LinfBallSampler(center2, 0.3), Sampler)


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
    def test_matches_in_process_oracle(self, tmp_path, seed, center2):
        # Same sampler, same seed windows: the line protocol must reproduce
        # the in-process predicate verdict for verdict, trial by trial.
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        reference = PropertyOracle(sampler, _BatchHalfPlane())
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            got = oracle.draw(300, 0, seed)
        assert got == reference.draw(300, 0, seed)

    def test_windows_partition_the_call(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            whole = oracle.draw(200, 1, seed)
            left = oracle.draw(80, 1, seed, start=0)
            right = oracle.draw(120, 1, seed, start=80)
        assert left.successes + right.successes == whole.successes

    def test_string_command_is_split(self, tmp_path, seed, center2):
        argv = _write_child(tmp_path, "return 0")
        command = " ".join(argv)
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            assert oracle.draw(10, 0, seed).successes == 0

    def test_spawn_failure(self, tmp_path, center2):
        sampler = LinfBallSampler(center2, 0.3)
        with pytest.raises(SpawnFailureError):
            SubprocessOracle(
                [str(tmp_path / "no-such-binary")], sampler, reference_label=0
            )

    def test_rejects_negative_reference(self, center2):
        sampler = LinfBallSampler(center2, 0.3)
        with pytest.raises(OutOfRangeError):
            SubprocessOracle([sys.executable, "-c", "pass"], sampler, -1)

    def test_non_integer_reply(self, tmp_path, seed, center2):
        command = _write_child(
            tmp_path, 'return "banana" if coords[0] > 0.5 else 0'
        )
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            with pytest.raises(ProtocolViolationError) as info:
                oracle.draw(300, 0, seed)
        partial = info.value.partial_tally
        assert partial is not None and partial.trials < 300

    def test_negative_label_reply(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return -4")
        sampler = LinfBallSampler(center2, 0.3)
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            with pytest.raises(ProtocolViolationError):
                oracle.draw(5, 0, seed)

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
        with SubprocessOracle(command, sampler, reference_label=0) as oracle:
            with pytest.raises(ChildExitError) as info:
                oracle.draw(50, 0, seed)
        partial = info.value.partial_tally
        assert partial is not None
        assert partial.trials == 7
        assert partial.successes == 7

    def test_close_is_idempotent(self, tmp_path, center2):
        command = _write_child(tmp_path, "return 0")
        oracle = SubprocessOracle(command, LinfBallSampler(center2, 0.3), 0)
        oracle.close()
        oracle.close()

    def test_close_releases_both_pipes(self, tmp_path, seed, center2):
        command = _write_child(tmp_path, "return 0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oracle = SubprocessOracle(command, LinfBallSampler(center2, 0.3), 0)
            oracle.draw(10, 0, seed)
            oracle.close()
            del oracle
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_batch_larger_than_the_reply_pipe(self, tmp_path, seed, center2):
        # The child flushes every reply; a batch written in one piece before
        # any reply is read fills the child's stdout pipe and blocks both.
        command = _write_child(tmp_path, "return 1 if coords[0] > 0.5 else 0")
        sampler = LinfBallSampler(center2, 0.3)
        oracle = SubprocessOracle(command, sampler, reference_label=0)
        k, window = 40_000, 8_192
        got = {}

        def draw_all():
            got["whole"] = oracle.draw(k, 0, seed)
            got["parts"] = [
                oracle.draw(min(window, k - s), 0, seed, start=s)
                for s in range(0, k, window)
            ]

        worker = threading.Thread(target=draw_all, daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        if worker.is_alive():
            oracle._proc.kill()
            worker.join(timeout=5.0)
        oracle.close()
        assert not worker.is_alive() and "parts" in got
        assert got["whole"].trials == k
        assert got["whole"].successes == sum(t.successes for t in got["parts"])
        assert 0 < got["whole"].successes < k
