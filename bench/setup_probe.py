"""Set quantcert up once in a fresh interpreter and report when that finished.

Usage: python3 bench/setup_probe.py SPEC.json

Set-up is what a user pays before the first request: importing quantcert,
``load_model`` on the model document when there is one, and building the
oracle or sampler.  The last line printed is the CLOCK_MONOTONIC reading, in
seconds, taken when set-up was done; the parent subtracts the reading it
took just before starting this process.
"""

import json
import sys
import time
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, spec["src"])

import numpy as np  # noqa: E402
import quantcert as qc  # noqa: E402

if spec["kind"] == "bernoulli":
    oracles = [qc.BernoulliOracle(p) for p in spec["rates"]]
else:
    model = qc.load_model(Path(spec["model"]).read_text())
    center = np.asarray(spec["center"])
    sampler = qc.make_sampler(spec["norm"], center, spec["epsilon"])
    prop = qc.misclassification_property(model, center)

print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
