"""Success oracles: stateless sources of 0/1 trial outcomes.

An oracle's draw(seed, start, count) runs trials [start, start + count) of
the run's one trial stream under seed and answers one outcome per trial, a
TrialOutcomes.  It must be a pure function of its arguments: batch the
trials however you like, trial i always sees the same randomness.  That
contract is what lets testers batch, keep the outcomes and replay without
changing any verdict.

BernoulliOracle compares each trial's raw word with one cut; PropertyOracle
is the one oracle that samples a region, and it labels the points with a
predicate, one bool per point.  The predicate runs in process (a model's
misclassification property) or in a child process (SubprocessProperty).

An oracle sizes its own draws with ``batch_trials``, the trials a tester
asks of it at a time: both oracles here size it so that one draw reads
about BATCH_WORDS raw words, whatever each trial costs.  A tester gives an
oracle without it 128.

A BernoulliOracle draw of at least 2^16 trials splits between the calling
thread and the process's one helper thread (BernoulliOracle).  Nothing else
splits: PropertyOracle draws stay on the calling thread, where the BLAS
threads of forward_batch already use the second core and a split measured
no gain.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Protocol, Union, runtime_checkable

import numpy as np

from .core import (
    OutOfRangeError, QuantCertError, SampleTally, SeedSpec, _check_int, _check_real, _words,
)

# Raw words one draw reads by default (1 MiB): few enough Python round trips
# per call on a cheap oracle, small enough to keep a batch in cache.
BATCH_WORDS = 1 << 17

# The fewest trials a Bernoulli draw splits across two threads.  Half of such
# a draw, 256 KiB of words, takes about 0.29 ms to make and compare; handing
# a job to the helper and back takes 14-23 us (a no-op job, 3,000 in a row,
# 12 repeats; Python 3.11, numpy 2.4, 2-vCPU x86 VM).
_SPLIT_TRIALS = 1 << 16

# Points per write/read round with an external classifier.  The child answers
# each line as it reads it, so the replies of one round must fit in its
# stdout pipe while the parent is still writing; 1024 short label lines do.
_ROUND_LINES = 1024


class OracleFailure(QuantCertError):
    """An oracle could not start, or could not finish a draw.

    ``partial_tally`` holds the trials answered before the failure; it is
    None when the external oracle could not be started.
    """

    def __init__(self, message: str, partial_tally: Optional[SampleTally] = None):
        super().__init__(message)
        self.partial_tally = partial_tally


@dataclass(frozen=True, eq=False)
class TrialOutcomes:
    """What one draw answers: ``hits[i]`` is whether trial start + i succeeded.

    ``hits`` must be a 1-d numpy bool array, or the answer fails as an
    OracleFailure with an empty partial tally; ``successes`` is counted
    once, when the answer is built.  The stream checks that it holds one
    outcome per trial asked for.
    """

    hits: np.ndarray
    successes: int = field(init=False)

    def __post_init__(self) -> None:
        hits = self.hits
        if not (isinstance(hits, np.ndarray) and hits.dtype == np.bool_ and hits.ndim == 1):
            what = (f"shape {hits.shape} of {hits.dtype}" if isinstance(hits, np.ndarray)
                    else f"a {type(hits).__name__}")
            raise OracleFailure(
                f"the oracle answered {what}; a draw answers one bool per trial",
                partial_tally=SampleTally(0, 0),
            )
        object.__setattr__(self, "successes", int(np.count_nonzero(hits)))

    @property
    def trials(self) -> int:
        return len(self.hits)


@runtime_checkable
class Oracle(Protocol):
    def draw(self, seed: SeedSpec, start: int, count: int) -> TrialOutcomes:
        """Run trials [start, start + count) of the stream; return their outcomes."""
        ...


@runtime_checkable
class Sampler(Protocol):
    """Deterministic batch sampler over a d-dimensional input region."""

    dimension: int

    def batch(self, seed: SeedSpec, start: int, count: int) -> np.ndarray:
        """Points of trials [start, start + count), as a (count, dimension) array."""
        ...


# The helper thread's job queue, made with the first split draw.  The thread
# is a daemon, so it never keeps the interpreter alive.
_JOBS = None
_JOBS_LOCK = threading.Lock()


def _serve(jobs) -> None:
    while True:
        job, args, done, failed = jobs.get()
        try:
            job(*args)
        except BaseException as exc:  # raised again in the caller, by join
            failed.append(exc)
        done.release()


def _on_helper(job, *args):
    """Run job(*args) on the process's one helper thread; join() waits and re-raises."""
    global _JOBS
    with _JOBS_LOCK:
        if _JOBS is None:
            import queue  # here, not at import: set-up pays nothing for it

            _JOBS = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_JOBS,), name="quantcert-draw",
                             daemon=True).start()
    done = threading.Lock()
    done.acquire()
    failed: list = []
    _JOBS.put((job, args, done, failed))

    def join() -> None:
        done.acquire()
        if failed:
            raise failed[0]

    return join


def _forget_helper() -> None:
    """In a forked child, which has no helper thread: the next split starts one."""
    global _JOBS, _JOBS_LOCK
    _JOBS, _JOBS_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _fill_hits(hits: np.ndarray, root_seed: int, first_word: int, cut: int) -> None:
    np.less(_words(root_seed, first_word, len(hits)), cut, out=hits)


@dataclass(frozen=True)
class BernoulliOracle:
    """Synthetic oracle with a known success rate, for calibration and tests.

    Trial i succeeds when its uniform ``to_unit(word) < p``.  The draw makes
    that comparison on the raw words: ``to_unit(w) < p`` exactly when
    ``w < ceil(p * 2^53) << 11``, because scaling by 2^-53 is exact and an
    integer is below a real exactly when it is below the real's ceiling.
    The cut is a Python int, 2^64 at p = 1, and numpy compares uint64 words
    with it exactly (NEP 50), so every rate takes the same path.

    A draw of at least _SPLIT_TRIALS trials splits at trial count // 2: the
    calling thread reads the first half's words through seed.raw_block, the
    helper thread the second half's, each into its half of one bool array.
    Each word is a pure function of the root seed and its place in the
    stream (SeedSpec), so the hits are an unsplit draw's, bit for bit.
    """

    p: float

    batch_trials = BATCH_WORDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_real("p", self.p, "[0, 1]"))
        object.__setattr__(self, "_cut", math.ceil(self.p * 2.0 ** 53) << 11)

    def draw(self, seed: SeedSpec, start: int, count: int) -> TrialOutcomes:
        """The helper reads core._words, not seed.raw_block: bench/tracing.py
        patches raw_block with one span stack per process, which a span
        opened on the helper thread would corrupt."""
        count = _check_int("count", count, 0)
        start = _check_int("start", start, 0)
        half = count if count < _SPLIT_TRIALS else count // 2
        hits = np.empty(count, dtype=bool)
        join = (_on_helper(_fill_hits, hits[half:], seed.root_seed, start + half, self._cut)
                if half < count else lambda: None)
        try:
            np.less(seed.raw_block(start, half, 1).reshape(half), self._cut, out=hits[:half])
        finally:
            join()
        return TrialOutcomes(hits)


class PropertyOracle:
    """Sampler plus predicate: success means the property holds at the point.

    The predicate labels a whole batch at once: ``predicate.batch(points)``
    returns one truth value per row of an (n, d) array.  An answer that is
    not 1-d fails the draw; one of another length fails the run's stream.
    """

    def __init__(self, sampler: Sampler, predicate) -> None:
        if not callable(getattr(predicate, "batch", None)):
            raise TypeError(
                f"predicate {type(predicate).__name__} has no batch(points) method"
            )
        self.sampler = sampler
        self.predicate = predicate
        self.batch_trials = max(1, BATCH_WORDS // sampler.dimension)

    def draw(self, seed: SeedSpec, start: int, count: int) -> TrialOutcomes:
        points = self.sampler.batch(seed, start, count)
        return TrialOutcomes(np.asarray(self.predicate.batch(points), dtype=bool))


class SubprocessProperty:
    """An external classifier speaking a line protocol on stdio, as a predicate.

    Per point the parent writes one line of comma-separated float
    coordinates; the child answers one line holding a nonnegative integer
    label.  The parent writes a batch in rounds of at most 1,024 lines and
    reads each round's replies before writing the next, so a child that
    flushes every reply cannot fill its output pipe and stall both sides.
    Closing the child's stdin tells it to shut down.  The property holds at
    a point when the child's label differs from reference_label.  command
    is a shell-style string or a sequence of str, bytes or path arguments.
    """

    def __init__(self, command: Union[str, Sequence[str]], reference_label: int) -> None:
        self.reference_label = _check_int("reference_label", reference_label, 0)
        try:
            argv = (shlex.split(command) if isinstance(command, str)
                    else list(command) if isinstance(command, Sequence) else [command])
        except ValueError as exc:
            raise OutOfRangeError(
                f"the oracle command {command!r} does not parse: {exc}"
            ) from None
        if not all(isinstance(arg, (str, bytes, os.PathLike)) for arg in argv):
            raise OutOfRangeError(
                f"the oracle command {command!r} is neither a string nor a sequence "
                "of program arguments"
            )
        if not argv:
            raise OutOfRangeError(f"the oracle command {command!r} names no program")
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise OracleFailure(f"could not start {argv!r}: {exc}") from exc

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Whether the child's label differs from reference_label, per row.

        A failure's partial tally counts the rows answered before it.
        """
        count = len(points)
        hits = np.zeros(count, dtype=bool)
        answered = 0

        def failure(message: str) -> OracleFailure:
            tally = SampleTally(answered, int(np.count_nonzero(hits[:answered])))
            return OracleFailure(message, partial_tally=tally)

        for first in range(0, count, _ROUND_LINES):
            rows = points[first : first + _ROUND_LINES]
            payload = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
            try:
                self._proc.stdin.write(payload)
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise failure(f"oracle process died while receiving a batch: {exc}") from exc
            for _ in range(len(rows)):
                line = self._proc.stdout.readline()
                if line == "":
                    raise failure(
                        f"oracle process closed its output after {answered} of {count} replies"
                    )
                text = line.strip()
                try:
                    label = int(text)
                except ValueError:
                    raise failure(f"expected an integer label, got {text!r}") from None
                if label < 0:
                    raise failure(f"labels must be nonnegative, got {label}")
                hits[answered] = label != self.reference_label
                answered += 1
        return hits

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        if proc.stdin and not proc.stdin.closed:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout and not proc.stdout.closed:
            proc.stdout.close()

    def __enter__(self) -> "SubprocessProperty":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
