"""Shared domain types for threshold certification.

A threshold query asks whether a 0/1 property holds for at most a fraction
``theta`` of a samplable space, with slack ``eta`` and failure budget
``delta``.  Everything downstream (testers, strategies, robustness front
ends) speaks in these types.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real
from typing import Collection, Dict, Literal, Optional, Sequence, Tuple, Union, get_args

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
    if ((type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool)))
            and low <= value and (high is None or value < high)):
        return int(value)
    span = f"of at least {low}" if high is None else f"in [{low}, {high})"
    raise OutOfRangeError(f"{name} must be an integer {span}, got {value!r}")


def _check_choice(name: str, value: object, choices: Collection[str]) -> str:
    """value as a plain str, once it is one of choices, else OutOfRangeError whatever its type."""
    if isinstance(value, str) and value in choices:
        return str(value)
    raise OutOfRangeError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")


def _check_list(name: str, values: object, of: str) -> list:
    """values as a list, once it is an iterable but not a str, else OutOfRangeError."""
    if not isinstance(values, str):
        try:
            return list(values)  # type: ignore[call-overload]
        except TypeError:
            pass
    raise OutOfRangeError(f"{name} must be a list of {of}, got {values!r}")


_BOUNDS: Dict[str, Tuple[float, float, bool, bool]] = {}


def _check_real(name: str, value: object, interval: str) -> float:
    """value as a float, once it is a real number in interval, else OutOfRangeError.

    interval is "[low, high]", with "(" or ")" at an excluded end.  Ints and
    numpy reals pass; bools, strings, None, NaN (no comparison holds) and
    ints too large for a float fail.  A zero is stored as 0.0, never -0.0.
    """
    if interval not in _BOUNDS:
        low, high = interval[1:-1].split(",")
        _BOUNDS[interval] = (float(low), float(high), interval[0] == "(", interval[-1] == ")")
    low, high, low_open, high_open = _BOUNDS[interval]
    if ((type(value) is float or (isinstance(value, Real) and not isinstance(value, bool)))
            and (low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        try:
            return float(value) + 0.0
        except OverflowError:  # an int beyond every float, inside an infinite end
            pass
    raise OutOfRangeError(f"{name} must sit in {interval}, got {value!r}")


# ---------------------------------------------------------------------------
# queries and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdQuery:
    """Decide: does the property hold for at most ``theta`` of the space?

    ``eta`` is the indifference width: densities inside the open band
    (theta, theta + eta) carry no guarantee.  ``delta`` bounds the
    probability of a wrong verdict outside that band, edges included.
    Each field is checked by _check_real and stored as a Python float.
    """

    theta: float
    eta: float
    delta: float

    def __post_init__(self) -> None:
        for name, interval in (("theta", "[0, 1]"), ("eta", "(0, 1)"), ("delta", "(0, 1]")):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), interval))
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

    A ThresholdQuery is returned unchanged and a triple (theta, eta, delta)
    builds one; anything else, or a bad parameter, raises OutOfRangeError.
    """
    if isinstance(raw, ThresholdQuery):
        return raw
    try:
        return ThresholdQuery(*raw)
    except TypeError:
        raise OutOfRangeError(f"a query is a triple (theta, eta, delta), got {raw!r}") from None


VerdictKind = Literal["yes", "no", "inconclusive"]
InconclusiveReason = Literal["budget-exhausted", "timeout"]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a run: yes, no, or inconclusive for a reason; _check_choice checks each."""

    kind: VerdictKind
    reason: Optional[InconclusiveReason] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _check_choice("kind", self.kind, get_args(VerdictKind)))
        if self.kind == "inconclusive":
            reason = _check_choice("reason", self.reason, get_args(InconclusiveReason))
            object.__setattr__(self, "reason", reason)
        elif self.reason is not None:
            raise OutOfRangeError("only inconclusive verdicts carry a reason")


@dataclass(frozen=True)
class SampleTally:
    """Immutable (trials, successes) pair of ints; the rate is always derived."""

    trials: int
    successes: int

    def __post_init__(self) -> None:
        trials = _check_int("trials", self.trials, 0)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "successes", _check_int("successes", self.successes, 0, trials + 1))

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


# Building Philox(SeedSequence(root_seed, spawn_key=(0,))) and advancing it
# costs 15-20 us a call, setting the state of a kept generator about 1.5
# (numpy 2.4, 2-vCPU x86 VM): so each root's key is derived once, and each
# thread keeps one Philox that raw_block re-keys and positions.
_WORD = (1 << 64) - 1
_PER_THREAD = threading.local()


@lru_cache(maxsize=64)
def _stream_key(root_seed: int) -> np.ndarray:
    """The key Philox(SeedSequence(root_seed, spawn_key=(0,))) uses, read-only."""
    key = SeedSequence(root_seed, spawn_key=(0,)).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def _philox_at(root_seed: int, blocks: int) -> Philox:
    """This thread's Philox, on root_seed's stream and blocks counter blocks in.

    Its state is the one advance(blocks) leaves a fresh generator in: the
    counter as four 64-bit words, wrapping at 2^256 as advance does, and an
    empty buffer.
    """
    bits = getattr(_PER_THREAD, "philox", None)
    if bits is None:
        bits = _PER_THREAD.philox = Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [blocks & _WORD, (blocks >> 64) & _WORD,
                        (blocks >> 128) & _WORD, (blocks >> 192) & _WORD],
            "key": _stream_key(root_seed),
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bits


def _words(root_seed: int, first_word: int, size: int) -> np.ndarray:
    """Words [first_word, first_word + size) of root_seed's stream, size >= 1.

    Unchecked: SeedSpec.raw_block checks its window and calls this, and so
    does a split Bernoulli draw for the half it hands another thread.
    """
    blocks, offset = divmod(first_word, 4)
    return _philox_at(root_seed, blocks).random_raw(offset + size)[offset:]


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
    order windows are asked for, and threads may share a spec.  The stream's
    key is derived once per root seed and kept in a small module cache, not
    on the spec.
    """

    root_seed: int

    DERIVATION = (
        "philox4x64: one stream per run, spawn_key=(0,); call k reads trials [0, n_k); "
        "trial i owns raw words [i*w, (i+1)*w); calls sized by exact binomial tails "
        "(tester._plan); the final call gets the delta the larger flank leaves "
        "(strategy._final_budget); bincert flank budgets rise toward the threshold"
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

        Philox advances in counter blocks of four 64-bit outputs.  Each call
        sets the calling thread's one Philox to the stream's key and to the
        counter block that holds the window's first word, then slices off
        the remainder: the words Philox(SeedSequence(root_seed,
        spawn_key=(0,))) gives after advance(blocks), which
        tests/test_core.py checks against numpy's own path.  The result
        depends only on the addressed window and is the caller's to write.
        start and count are integers of at least 0, width of at least 1,
        each checked by _check_int: numpy integers give the words their
        Python ints give.
        """
        start = _check_int("start", start, 0)
        count = _check_int("count", count, 0)
        width = _check_int("width", width, 1)
        if count == 0:
            return np.empty((0, width), dtype=np.uint64)
        return _words(self.root_seed, start * width, count * width).reshape(count, width)
