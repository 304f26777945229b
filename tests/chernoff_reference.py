"""Additive Chernoff tail bounds, kept as a reference for the tests.

The tester's sample size is derived from these bounds; the tests check
that every plan meets them, and that one trial fewer would not.  No
library path evaluates them, so they live here rather than in quantcert.
"""

import math


class DomainError(ValueError):
    """A bound was asked for outside its domain."""


def chernoff_tail(mu: float, eta: float, n: int, side: str = "upper") -> float:
    """Additive Chernoff bound for the mean of n Bernoulli(mu) draws.

    upper: Pr[p_hat >= mu + eta] <= exp(-n eta^2 / (3 mu))
    lower: Pr[p_hat <= mu - eta] <= exp(-n eta^2 / (2 mu))

    The bound degenerates at mu = 0; callers must special-case p = 0
    themselves.  Raises DomainError on any precondition violation.
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
        return math.exp(-n * eta * eta / (3.0 * mu))
    if side == "lower":
        return math.exp(-n * eta * eta / (2.0 * mu))
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
