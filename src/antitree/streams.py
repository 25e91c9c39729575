"""Deterministic, parallel-safe random streams.

Every random draw in the package comes from a counter-based Philox generator
keyed by the master seed plus an integer id tuple.  Distinct id tuples give
statistically independent streams, the same tuple always reproduces the same
sequence, and no generator state is ever shared between tasks.  This is what
makes sweeps byte-identical across reruns and across worker counts: a trial's
randomness depends only on ``(seed, *ids)``, never on scheduling.
"""

from __future__ import annotations

import numpy as np

# stream domains: the first id of every key, so that different kinds of draws
# never share randomness for the same (seed, cell, trial)
DOMAIN_TRAJECTORY = 1
DOMAIN_SUBORDINACY = 2
DOMAIN_DENSITY = 3
DOMAIN_WEYL = 4
DOMAIN_MOMENT = 5
DOMAIN_DRIFT = 0xD


def seed_stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Return the Philox generator keyed by ``(master_seed, ids...)``.

    Calling twice with equal arguments yields identical streams; changing any
    component of the key decorrelates the output.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))
