"""Sound quantitative certification of threshold properties.

Decide, with user-set slack and confidence, whether a 0/1 property holds
for at most a threshold fraction of a samplable space; apply it to
adversarial density and hardness of classifiers.

The package root exports the entry points, the QuantCertError tree and the
types that appear in their signatures.  Everything else is imported from
its own module: quantcert.strategy, quantcert.tester, quantcert.sim, ...
"""

from .core import (
    DegenerateQueryError,
    DimensionMismatchError,
    OutOfRangeError,
    QuantCertError,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
)
from .nn import (
    Model,
    NonFiniteWeightError,
    ParseError,
    ShapeError,
    forward_batch,
    load_model,
    predict_batch,
)
from .oracle import (
    BernoulliOracle,
    ChildExitError,
    Oracle,
    OracleFailure,
    ProtocolViolationError,
    Sampler,
    SpawnFailureError,
    SubprocessOracle,
)
from .robustness import (
    EmptySupportError,
    HardnessResult,
    L2BallSampler,
    LinfBallSampler,
    NoYesFoundError,
    ProbeRecord,
    RobustnessQuery,
    adversarial_hardness,
    certify_density,
    make_sampler,
    misclassification_property,
)
from .strategy import (
    CallRecord,
    CertificationReport,
    ReportInvariantError,
    ResourceLimits,
    bincert,
    estimate_baseline,
    fixedcert,
    run_strategy,
)
from .tester import InvalidConfidenceError, InvalidIntervalError, TesterPlan

__version__ = "0.1.0"

__all__ = [
    "BernoulliOracle",
    "CallRecord",
    "CertificationReport",
    "ChildExitError",
    "DegenerateQueryError",
    "DimensionMismatchError",
    "EmptySupportError",
    "HardnessResult",
    "InvalidConfidenceError",
    "InvalidIntervalError",
    "L2BallSampler",
    "LinfBallSampler",
    "Model",
    "NoYesFoundError",
    "NonFiniteWeightError",
    "Oracle",
    "OracleFailure",
    "OutOfRangeError",
    "ParseError",
    "ProbeRecord",
    "ProtocolViolationError",
    "QuantCertError",
    "ReportInvariantError",
    "ResourceLimits",
    "RobustnessQuery",
    "SampleTally",
    "Sampler",
    "SeedSpec",
    "ShapeError",
    "SpawnFailureError",
    "SubprocessOracle",
    "TesterPlan",
    "ThresholdQuery",
    "Verdict",
    "adversarial_hardness",
    "bincert",
    "certify_density",
    "estimate_baseline",
    "fixedcert",
    "forward_batch",
    "load_model",
    "make_sampler",
    "misclassification_property",
    "predict_batch",
    "run_strategy",
]
