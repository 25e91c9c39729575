"""The benchmark's tracer finds every function it patches, and each is called.

``perfbench/tracer.py`` wraps package functions by name where their callers
look them up.  A rename or a call that bypasses the module global would
silently drop a span; this runs one tiny call of each benchmark path under
the tracer and requires a span for every patch point.
"""

import json
import sys
from pathlib import Path

import antitree.cli
import antitree.engine
from antitree import GrowthLaw, PotentialDistribution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import PATCH_POINTS, Tracer  # noqa: E402


def test_every_patch_point_records_a_span(tmp_path):
    law = GrowthLaw.uniform_power(1.5, 1.0)
    config = tmp_path / "density.json"
    config.write_text(json.dumps({
        "experiment": "density", "distribution": {"kind": "bernoulli"}, "lambda": 0.0,
        "growth": {"d": 1.0, "C": 1.0}, "energy": {"min": -1.0, "max": 1.0, "steps": 2},
        "N": 1000, "trials": 2, "seed": 1}))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call(antitree.engine.lyapunov_batch, PotentialDistribution.bernoulli(), law,
                    2.0, 1.0, 200, [0, 1], 3)
        tracer.call(antitree.engine.subordinacy_batch, PotentialDistribution.uniform(), law,
                    2.0, 1.0, 200, [0], 3, with_gram=True)
        code = tracer.call(antitree.cli.main, ["density", "--config", str(config),
                                               "--out", "out", "--threads", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    recorded = {span[0] for span in tracer.spans}
    missing = [name for _, _, name in PATCH_POINTS if name not in recorded]
    assert not missing
