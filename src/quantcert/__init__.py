"""Sound quantitative certification of threshold properties.

Decide, with user-set slack and confidence, whether a 0/1 property holds
for at most a threshold fraction of a samplable space; apply it to
adversarial density and hardness of classifiers.

The package root exports three groups of names, and nothing else: the names
the README's examples and the benchmark import, the two types a caller
builds to pass in (ResourceLimits, TrialOutcomes), and the QuantCertError
tree.  Every other name, such as a type a caller only receives, is imported
from the module that defines it: quantcert.strategy, quantcert.tester,
quantcert.robustness, quantcert.nn, quantcert.oracle, quantcert.core, ...
"""

from .core import OutOfRangeError, QuantCertError, SeedSpec, ThresholdQuery
from .nn import load_model
from .oracle import BernoulliOracle, OracleFailure, SubprocessProperty, TrialOutcomes
from .robustness import (
    adversarial_hardness,
    certify_density,
    make_sampler,
    misclassification_property,
)
from .strategy import ReportInvariantError, ResourceLimits, run_strategy

__version__ = "0.1.0"

__all__ = [
    "BernoulliOracle",
    "OracleFailure",
    "OutOfRangeError",
    "QuantCertError",
    "ReportInvariantError",
    "ResourceLimits",
    "SeedSpec",
    "SubprocessProperty",
    "ThresholdQuery",
    "TrialOutcomes",
    "adversarial_hardness",
    "certify_density",
    "load_model",
    "make_sampler",
    "misclassification_property",
    "run_strategy",
]
