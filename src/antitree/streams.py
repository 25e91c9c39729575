"""Deterministic, parallel-safe random streams.

Every random draw in the package comes from an SFC64 generator seeded through
``SeedSequence`` by the master seed plus an integer id tuple.  SeedSequence
hashes distinct id tuples into unrelated initial states, so the streams are
statistically independent; the same tuple always reproduces the same
sequence, and no generator state is ever shared between tasks.  This is what
makes sweeps byte-identical across reruns and across worker counts: a trial's
randomness depends only on ``(seed, *ids)``, never on scheduling.

A trajectory's shells come in blocks, each drawn from a stream of its own
without a SeedSequence hash per block: the column's generator takes every
block's SFC64 state from one ``generate_state`` of its seed sequence
(``_block_states``) and is re-stated to block b's four words before drawing
it (``_restate``).  ``generate_state`` is prefix-stable, its first words not
depending on how many are asked for, so a block's stream depends only on the
column's key and the block index, not on the trajectory's length.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# stream domains: the first id of every key, so that different kinds of draws
# never share randomness for the same (seed, cell, trial)
DOMAIN_TRAJECTORY = 1
DOMAIN_SUBORDINACY = 2
DOMAIN_DENSITY = 3
DOMAIN_WEYL = 4
DOMAIN_MOMENT = 5


def _whole_count(value, least: int = 1, what: str = "N") -> int:
    """A count, or a stream key, as an int, integral floats included;
    DomainError (reason ``what``) unless it is a whole number >= ``least``,
    non-numbers, booleans and integers too large for a float included."""
    try:
        whole = (not isinstance(value, bool) and math.isfinite(value)
                 and value == int(value) >= least)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError(f"need a whole count {what} >= {least}, got {value!r}", reason=what)
    return int(value)


def seed_stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Return the SFC64 generator keyed by ``(master_seed, ids...)``, whole
    numbers >= 0 (DomainError, reason "seed", otherwise).

    Calling twice with equal arguments yields identical streams; changing any
    component of the key decorrelates the output.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        entropy=_whole_count(master_seed, 0, "seed"),
        spawn_key=tuple(_whole_count(i, 0, "seed") for i in ids))))


def _block_states(gen: np.random.Generator, nblocks: int) -> np.ndarray:
    """The (nblocks, 4) SFC64 states of blocks 0 .. nblocks - 1 of the stream
    ``gen`` (a ``seed_stream``): row b is words [4b, 4b + 4) of its seed
    sequence's uint64 state."""
    return gen.bit_generator.seed_seq.generate_state(4 * nblocks, np.uint64).reshape(nblocks, 4)


def _restate(gen: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """Set the SFC64 generator ``gen`` to the state ``words`` (one row of
    ``_block_states``), with no buffered half word, and return it."""
    gen.bit_generator.state = {"bit_generator": "SFC64", "state": {"state": words},
                               "has_uint32": 0, "uinteger": 0}
    return gen
