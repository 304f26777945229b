"""Reference tail figures for the tests, computed independently of quantcert.

exact_tails and feasible evaluate binomial tails exactly, in rationals
from math.comb, so they suit small N only.  chernoff_tail is the additive
Chernoff bound, in the form that holds for every deviation, from which the
tester's closed-form start and worst_case_budget are derived.  No library
path evaluates these, so they live here rather than in quantcert.
"""

import math
from fractions import Fraction


class DomainError(ValueError):
    """A bound was asked for outside its domain."""


def _pmf(n: int, p: float):
    """P(S = k) for S ~ Bin(n, p) and k = 0..n, as integers over one common denominator."""
    num, den = Fraction(p).as_integer_ratio()
    return [math.comb(n, k) * num ** k * (den - num) ** (n - k) for k in range(n + 1)], den ** n


def exact_tails(n: int, p: float, c: int):
    """(P(S > c), P(S <= c)) for S ~ Bin(n, p), as exact Fractions."""
    pmf, whole = _pmf(n, p)
    below = Fraction(sum(pmf[: c + 1]), whole)
    return 1 - below, below


def feasible(n: int, theta1: float, theta2: float, delta: float) -> bool:
    """Whether some cutoff c has P_theta1(S > c) <= delta and P_theta2(S <= c) <= delta."""
    (first, whole1), (second, whole2) = _pmf(n, theta1), _pmf(n, theta2)
    num, den = Fraction(delta).as_integer_ratio()
    above, below = whole1, 0
    for k in range(n + 1):
        above, below = above - first[k], below + second[k]  # the tails at c = k
        if above * den <= num * whole1 and below * den <= num * whole2:
            return True
    return False


def chernoff_tail(mu: float, eta: float, n: int, side: str = "upper") -> float:
    """Additive Chernoff bound for the mean of n Bernoulli(mu) draws.

    upper: Pr[p_hat >= mu + eta] <= exp(-n eta^2 / (2 mu + eta))
    lower: Pr[p_hat <= mu - eta] <= exp(-n eta^2 / (2 mu))

    These are exp(-e^2 mu n / (2 + e)) and exp(-e^2 mu n / 2) for e = eta / mu,
    which hold for every e > 0.  The bound degenerates at mu = 0; callers
    must special-case p = 0 themselves.  Raises DomainError on any
    precondition violation.
    """
    if mu <= 0.0:
        raise DomainError("tail bound undefined at mu <= 0; handle p = 0 separately")
    if mu > 1.0:
        raise DomainError(f"mu must sit in (0, 1], got {mu}")
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if side == "upper":
        return math.exp(-n * eta * eta / (2.0 * mu + eta))
    if side == "lower":
        return math.exp(-n * eta * eta / (2.0 * mu))
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
