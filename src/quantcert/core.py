"""Shared domain types for threshold certification.

A threshold query asks whether a 0/1 property holds for at most a fraction
``theta`` of a samplable space, with slack ``eta`` and failure budget
``delta``.  Everything downstream (testers, strategies, robustness front
ends) speaks in these types.
"""

from __future__ import annotations

import numbers
import secrets
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np
from numpy.random import Philox, SeedSequence


class QuantCertError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(QuantCertError):
    """A parameter fell outside its documented range."""


def _check_int(name: str, value: object, low: int, high: Optional[int] = None) -> int:
    """value as an int, once it is an integer in [low, high), else OutOfRangeError.

    numpy integers pass; bools and integral floats do not.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
        or (high is not None and value >= high)
    ):
        span = f"of at least {low}" if high is None else f"in [{low}, {high})"
        raise OutOfRangeError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _is_real(value: object) -> bool:
    """Whether value is a real number other than a bool, as _check_int rules for integers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
            raise OutOfRangeError(
                f"theta + eta = {self.theta + self.eta} exceeds 1; "
                "nothing above the threshold band remains to refute"
            )
        # A band that rounds away, or whose width squared underflows, leaves
        # the testers nothing to divide by.
        if self.theta + self.eta == self.theta or self.eta * self.eta == 0.0:
            raise OutOfRangeError(
                f"eta = {self.eta} vanishes next to theta = {self.theta}: "
                "theta + eta rounds to theta or eta squared underflows"
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
    (theta, eta, delta) triple.  Raises OutOfRangeError on anything else
    and on bad parameters, theta + eta > 1 included.
    """
    if isinstance(raw, ThresholdQuery):
        return raw
    try:
        theta, eta, delta = raw
    except (TypeError, ValueError):
        theta = eta = delta = None
    if not all(_is_real(v) for v in (theta, eta, delta)):
        raise OutOfRangeError(f"a query is three real numbers (theta, eta, delta), got {raw!r}")
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
    """Root seed plus the derivation rule for all of a run's randomness.

    A run reads one counter-based stream, keyed (0,); every tester call of
    the run decides on a prefix of it, so call k sees trials [0, n_k).
    Trial i owns a fixed-width window of raw words, so its randomness is a
    pure function of (root_seed, i).  Batch size can never change what any
    trial sees.

    A spec is plain data, its root seed alone: every window is positioned
    from its counter block when asked for, so results never depend on the
    order windows are asked for, and threads may share a spec.
    """

    root_seed: int

    DERIVATION = (
        "philox4x64: one stream per run, spawn_key=(0,); call k reads trials [0, n_k); "
        "trial i owns raw words [i*w, (i+1)*w)"
    )

    def __post_init__(self) -> None:
        seed = _check_int("root_seed", self.root_seed, 0, 2 ** 63)
        object.__setattr__(self, "root_seed", seed)

    @classmethod
    def fresh(cls) -> "SeedSpec":
        """Draw a root seed from OS entropy (recorded, so runs stay replayable)."""
        return cls(secrets.randbits(62))

    def child(self, index: int) -> "SeedSpec":
        """Derive an independent child spec, for batches of related runs.

        Child keys use a two-element spawn key, so they can never collide
        with the single-element key of a run's trial stream.
        """
        index = _check_int("child index", index, 0)
        ss = SeedSequence(self.root_seed, spawn_key=(index, 1))
        return SeedSpec(int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1)))

    def raw_block(self, start: int, count: int, width: int) -> np.ndarray:
        """Raw words for trials [start, start + count), as a (count, width) array.

        Philox advances in counter blocks of four 64-bit outputs: each call
        positions a fresh generator at the block that holds the window's
        first word and slices off the remainder.  The result depends only on
        the addressed window and is the caller's to write.
        """
        if start < 0 or count < 0 or width < 1:
            raise OutOfRangeError("need start >= 0, count >= 0, width >= 1")
        if count == 0:
            return np.empty((0, width), dtype=np.uint64)
        bits = Philox(SeedSequence(self.root_seed, spawn_key=(0,)))
        blocks, offset = divmod(start * width, 4)
        bits.advance(blocks)
        return bits.random_raw(offset + count * width)[offset:].reshape(count, width)
