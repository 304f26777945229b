"""Success oracles: stateless sources of 0/1 trial outcomes.

An oracle's draw(seed, start, count) runs trials [start, start + count) of
the run's one trial stream under seed and answers one outcome per trial, a
TrialOutcomes.  It must be a pure function of its arguments: batch the
trials however you like, trial i always sees the same randomness.  That
contract is what lets testers batch, keep the outcomes and replay without
changing any verdict.

BernoulliOracle draws its trials from the raw words; PropertyOracle is the
one oracle that samples a region, and it labels the points with a
predicate, one bool per point.  The predicate runs in process (a model's
misclassification property) or in a child process (SubprocessProperty).

An oracle sizes its own draws with ``batch_trials``, the trials a tester
asks of it at a time: both oracles here size it so that one draw reads
about BATCH_WORDS raw words, whatever each trial costs.  A tester gives an
oracle without it 128.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from .core import OutOfRangeError, QuantCertError, SampleTally, SeedSpec, _check_int, _check_real

# Raw words one draw reads by default (1 MiB): few enough Python round trips
# per call on a cheap oracle, small enough to keep a batch in cache.
BATCH_WORDS = 1 << 17

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

    ``hits`` is a 1-d bool array with one entry per trial asked for; the
    tally is derived from it.
    """

    hits: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.hits)

    @property
    def successes(self) -> int:
        return int(np.count_nonzero(self.hits))


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


@dataclass(frozen=True)
class BernoulliOracle:
    """Synthetic oracle with a known success rate, for calibration and tests.

    Trial i succeeds when its uniform ``to_unit(word) < p``.  The draw makes
    that comparison on the raw words: ``to_unit(w) < p`` exactly when
    ``w < ceil(p * 2^53) << 11``, because scaling by 2^-53 is exact and an
    integer is below a real exactly when it is below the real's ceiling.
    """

    p: float

    batch_trials = BATCH_WORDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_real("p", self.p, "[0, 1]"))
        # At p == 1 the cut would be 2^64, past uint64; every word passes.
        cut = None if self.p == 1.0 else np.uint64(math.ceil(self.p * 2.0 ** 53) << 11)
        object.__setattr__(self, "_cut", cut)

    def draw(self, seed: SeedSpec, start: int, count: int) -> TrialOutcomes:
        return TrialOutcomes(self._hits(seed.raw_block(start, count, width=1).reshape(count)))

    def _hits(self, raw: np.ndarray) -> np.ndarray:
        """Per word, whether its trial succeeds: ``to_unit(raw) < p``."""
        if self._cut is None:
            return np.ones(raw.shape, dtype=bool)
        return raw < self._cut


class PropertyOracle:
    """Sampler plus predicate: success means the property holds at the point.

    The predicate labels a whole batch at once: ``predicate.batch(points)``
    returns one truth value per row of an (n, d) array.  An answer of any
    other shape fails the draw.
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
        hits = np.asarray(self.predicate.batch(points), dtype=bool)
        if hits.shape != (count,):
            raise OracleFailure(
                f"the predicate answered shape {hits.shape} for {count} points",
                partial_tally=SampleTally(0, 0),
            )
        return TrialOutcomes(hits)


class SubprocessProperty:
    """An external classifier speaking a line protocol on stdio, as a predicate.

    Per point the parent writes one line of comma-separated float
    coordinates; the child answers one line holding a nonnegative integer
    label.  The parent writes a batch in rounds of at most 1,024 lines and
    reads each round's replies before writing the next, so a child that
    flushes every reply cannot fill its output pipe and stall both sides.
    Closing the child's stdin tells it to shut down.  The property holds at
    a point when the child's label differs from reference_label.
    """

    def __init__(self, command: Union[str, Sequence[str]], reference_label: int) -> None:
        self.reference_label = _check_int("reference_label", reference_label, 0)
        try:
            argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise OutOfRangeError(
                f"the oracle command {command!r} does not parse: {exc}"
            ) from None
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
