"""Deterministic, parallel-safe random streams.

Every random draw in the package comes from an SFC64 generator seeded through
``SeedSequence`` by the master seed plus an integer id tuple.  SeedSequence
hashes distinct id tuples into unrelated initial states, so the streams are
statistically independent; the same tuple always reproduces the same
sequence, and no generator state is ever shared between tasks.  This is what
makes sweeps byte-identical across reruns and across worker counts: a trial's
randomness depends only on ``(seed, *ids)``, never on scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# stream domains: the first id of every key, so that different kinds of draws
# never share randomness for the same (seed, cell, trial)
DOMAIN_TRAJECTORY = 1
DOMAIN_SUBORDINACY = 2
DOMAIN_DENSITY = 3
DOMAIN_WEYL = 4
DOMAIN_MOMENT = 5


def _stream_key(x) -> int:
    """``x`` as one component of a stream key: a whole number >= 0, numpy
    integers and integral floats included; DomainError (reason "seed")
    otherwise, rather than a truncated key that aliases another stream."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or k != x:
        raise DomainError(f"stream keys are whole numbers >= 0, got {x!r}", reason="seed")
    return k


def seed_stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Return the SFC64 generator keyed by ``(master_seed, ids...)``.

    Calling twice with equal arguments yields identical streams; changing any
    component of the key decorrelates the output.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        entropy=_stream_key(master_seed), spawn_key=tuple(map(_stream_key, ids)))))
