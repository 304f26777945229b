"""Sound quantitative certification of threshold properties.

Decide, with user-set slack and confidence, whether a 0/1 property holds
for at most a threshold fraction of a samplable space; apply it to
adversarial density and hardness of classifiers.

The package root exports the entry points, the QuantCertError tree and the
types that appear in their signatures.  Everything else is imported from
its own module: quantcert.strategy, quantcert.tester, quantcert.sim, ...
"""

from .core import (
    OutOfRangeError,
    QuantCertError,
    SampleTally,
    SeedSpec,
    ThresholdQuery,
    Verdict,
)
from .nn import (
    Model,
    forward_batch,
    load_model,
    predict_batch,
)
from .oracle import (
    BernoulliOracle,
    Oracle,
    OracleFailure,
    SubprocessProperty,
    TrialOutcomes,
)
from .robustness import (
    HardnessResult,
    L2BallSampler,
    LinfBallSampler,
    ProbeRecord,
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
    run_strategy,
)
from .tester import TesterPlan

__version__ = "0.1.0"

__all__ = [
    "BernoulliOracle",
    "CallRecord",
    "CertificationReport",
    "HardnessResult",
    "L2BallSampler",
    "LinfBallSampler",
    "Model",
    "Oracle",
    "OracleFailure",
    "OutOfRangeError",
    "ProbeRecord",
    "QuantCertError",
    "ReportInvariantError",
    "ResourceLimits",
    "SampleTally",
    "SeedSpec",
    "SubprocessProperty",
    "TesterPlan",
    "ThresholdQuery",
    "TrialOutcomes",
    "Verdict",
    "adversarial_hardness",
    "certify_density",
    "forward_batch",
    "load_model",
    "make_sampler",
    "misclassification_property",
    "predict_batch",
    "run_strategy",
]
