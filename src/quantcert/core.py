"""Shared domain types for threshold certification.

A threshold query asks whether a 0/1 property holds for at most a fraction
``theta`` of a samplable space, with slack ``eta`` and failure budget
``delta``.  Everything downstream (testers, strategies, robustness front
ends) speaks in these types.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np
from numpy.random import Philox, SeedSequence


class QuantCertError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(QuantCertError):
    """A parameter fell outside its documented range."""


class DegenerateQueryError(QuantCertError):
    """theta + eta exceeds 1; the query admits no refutation region."""


class DimensionMismatchError(QuantCertError):
    """Vector or model dimensions do not line up."""


# ---------------------------------------------------------------------------
# queries and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdQuery:
    """Decide: does the property hold for at most ``theta`` of the space?

    ``eta`` is the indifference width: densities inside the open band
    (theta, theta + eta) carry no guarantee.  ``delta`` bounds the
    probability of a wrong verdict outside that band, edges included.
    """

    theta: float
    eta: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise OutOfRangeError(f"theta must sit in [0, 1], got {self.theta}")
        if not 0.0 < self.eta < 1.0:
            raise OutOfRangeError(f"eta must sit in (0, 1), got {self.eta}")
        if not 0.0 < self.delta <= 1.0:
            raise OutOfRangeError(f"delta must sit in (0, 1], got {self.delta}")
        if self.theta + self.eta > 1.0:
            raise DegenerateQueryError(
                f"theta + eta = {self.theta + self.eta} exceeds 1; "
                "nothing above the threshold band remains to refute"
            )

    @property
    def upper(self) -> float:
        """theta + eta, computed once per access from the stored fields.

        All comparisons against the band's upper edge must use this exact
        derived value, never a re-derived sum with different rounding.
        """
        return self.theta + self.eta


QueryLike = Union[ThresholdQuery, Sequence[float]]


def validate_query(raw: QueryLike) -> ThresholdQuery:
    """Coerce ``raw`` into a validated query.

    Accepts an existing ThresholdQuery (returned unchanged) or a
    (theta, eta, delta) triple.  Raises OutOfRangeError or
    DegenerateQueryError on bad parameters.
    """
    if isinstance(raw, ThresholdQuery):
        return raw
    theta, eta, delta = raw
    return ThresholdQuery(float(theta), float(eta), float(delta))


InconclusiveReason = Literal["budget-exhausted", "timeout"]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certification run: yes, no, or inconclusive."""

    kind: Literal["yes", "no", "inconclusive"]
    reason: Optional[InconclusiveReason] = None

    def __post_init__(self) -> None:
        if self.kind == "inconclusive":
            if self.reason not in ("budget-exhausted", "timeout"):
                raise OutOfRangeError(
                    "inconclusive verdicts need a reason: budget-exhausted or timeout"
                )
        elif self.reason is not None:
            raise OutOfRangeError("only inconclusive verdicts carry a reason")

    @classmethod
    def yes(cls) -> "Verdict":
        return cls("yes")

    @classmethod
    def no(cls) -> "Verdict":
        return cls("no")

    @classmethod
    def inconclusive(cls, reason: InconclusiveReason) -> "Verdict":
        return cls("inconclusive", reason)


@dataclass(frozen=True)
class SampleTally:
    """Immutable (trials, successes) pair; the rate is always derived."""

    trials: int
    successes: int

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise OutOfRangeError(f"trials must be nonnegative, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise OutOfRangeError(
                f"successes {self.successes} outside [0, {self.trials}]"
            )

    @property
    def p_hat(self) -> float:
        """Empirical success rate; 0.0 for an empty tally."""
        if self.trials == 0:
            return 0.0
        return self.successes / self.trials


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

# Unit-interval conversions from raw 64-bit words.  The half-open form is the
# usual 53-bit construction.  The open form keeps both endpoints excluded so
# inverse-CDF transforms stay finite: its largest value is 1 - 2^-53, which
# is exactly representable, and its smallest is 2^-53.
_HALF_OPEN_SCALE = 2.0 ** -53
# The bits of 1.0: OR-ing a 52-bit m into them gives the double 1 + m * 2^-52.
_ONE_BITS = np.uint64(0x3FF0000000000000)

# Instance-dict key of a SeedSpec's read cursor: (call_index, next raw word,
# Philox positioned at that word).  Not a dataclass field.
_CURSOR = "_cursor"


def to_unit(raw: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in [0, 1)."""
    u = (raw >> np.uint64(11)).astype(np.float64, copy=False)
    u *= _HALF_OPEN_SCALE
    return u


def to_open_unit(raw: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in (0, 1), endpoints excluded.

    Word w maps to (m + 1/2) * 2^-52 with m = w >> 12.
    """
    # Built from the bits, with no integer-to-float cast.  The subtraction is
    # exact by Sterbenz's lemma: 1 <= 1 + m * 2^-52 <= 2 * (1 - 2^-53).
    bits = raw >> np.uint64(12)
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= 1.0 - _HALF_OPEN_SCALE
    return u


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus the derivation rule for all per-call randomness.

    Every tester call gets its own counter-based stream, keyed by the call
    index.  Within a stream, trial i owns a fixed-width window of raw words,
    so trial i's randomness is a pure function of (root_seed, call_index, i).
    Batch size can never change what any trial sees.

    A tester call reads its stream once, in order: the spec keeps the bit
    generator of the last window it served and resumes it when the next
    window starts where that one ended.  Any other window is positioned from
    scratch, so results never depend on the order windows are asked for.
    The cursor is a cache, not state: it takes no part in equality, hashing,
    repr, copies or pickles.
    """

    root_seed: int

    DERIVATION = "philox4x64: spawn_key=(call_index,); trial i owns raw words [i*w, (i+1)*w)"

    def __post_init__(self) -> None:
        if not 0 <= self.root_seed < 2 ** 63:
            raise OutOfRangeError("root_seed must sit in [0, 2^63)")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != _CURSOR}

    @classmethod
    def fresh(cls) -> "SeedSpec":
        """Draw a root seed from OS entropy (recorded, so runs stay replayable)."""
        return cls(secrets.randbits(62))

    def child(self, index: int) -> "SeedSpec":
        """Derive an independent child spec, for batches of related runs.

        Child keys use a two-element spawn key, so they can never collide
        with the single-element keys that address tester calls.
        """
        if index < 0:
            raise OutOfRangeError("child index must be nonnegative")
        ss = SeedSequence(self.root_seed, spawn_key=(index, 1))
        return SeedSpec(int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1)))

    def raw_block(self, call_index: int, start: int, count: int, width: int) -> np.ndarray:
        """Raw words for trials [start, start + count), as a (count, width) array.

        A window that starts where the previous one of the same call ended
        continues that stream.  Otherwise Philox, which advances in counter
        blocks of four 64-bit outputs, is positioned at the enclosing block
        and the remainder is sliced off.  The result depends only on the
        addressed window, and no one else holds it: callers may write to it.
        """
        if start < 0 or count < 0 or width < 1:
            raise OutOfRangeError("need start >= 0, count >= 0, width >= 1")
        if count == 0:
            return np.empty((0, width), dtype=np.uint64)
        first_raw = start * width
        # Popping hands the generator to this caller alone: a second thread
        # sharing the spec finds no cursor and builds its own stream.
        cursor = self.__dict__.pop(_CURSOR, None)
        if cursor is not None and cursor[0] == call_index and cursor[1] == first_raw:
            bits = cursor[2]
            words = bits.random_raw(count * width)
        else:
            if call_index < 0:
                raise OutOfRangeError("call_index must be nonnegative")
            bits = Philox(SeedSequence(self.root_seed, spawn_key=(call_index,)))
            blocks, offset = divmod(first_raw, 4)
            bits.advance(blocks)
            words = bits.random_raw(offset + count * width)[offset:]
        self.__dict__[_CURSOR] = (call_index, first_raw + count * width, bits)
        return words.reshape(count, width)

    def uniforms(self, call_index: int, start: int, count: int, width: int = 1) -> np.ndarray:
        """Half-open [0, 1) uniforms, shaped (count, width)."""
        return to_unit(self.raw_block(call_index, start, count, width))
