"""Frozen reference kernel for normalising wall times to machine speed.

On a shared virtual machine, speed drifts by tens of percent over minutes,
for every kind of work at once.  Each timed call is therefore
bracketed by runs of this kernel, whose operation mix follows the package's
hot paths: binomial counts of discrete shells, a block of uniform draws
reduced per shell, and a per-shell loop of small-array arithmetic.  Dividing
a call's wall time by the kernel's cancels the drift.

A workload that keeps both cores busy is bracketed by ``PairedReference``
instead, which runs the kernel on two processes at once.

The kernel does not depend on antitree, so changes to the package cannot
move it.  Do not edit it: any change rescales every normalised time.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from time import perf_counter

# a normalised time is in seconds of a machine on which the kernel takes this
NOMINAL_S = 0.2


def reference_kernel() -> float:
    """Run the fixed mix once; return its wall time in seconds."""
    import numpy as np

    t0 = perf_counter()
    gen = np.random.Generator(np.random.Philox(key=20240601))
    sizes = (np.arange(4096) % 97 + 1).astype(np.int64)
    counts = np.zeros(len(sizes), dtype=np.int64)
    for _ in range(80):
        counts += gen.binomial(sizes, 0.5)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    acc = np.zeros(len(sizes))
    for _ in range(8):
        r = 1.0 / (2.0 - gen.uniform(-1.0, 1.0, size=int(sizes.sum())))
        acc += np.add.reduceat(r, starts) + np.add.reduceat(r * r, starts)
    x = np.tile(np.outer(acc[:2048] - acc.mean(), np.linspace(-1.0, 1.0, 64)), (6, 1))
    x /= np.abs(x).max()
    c = np.ones(64)
    s = np.zeros(64)
    log_r = np.zeros(64)
    for row in x:
        crot = c * 0.6 - s * 0.8
        srot = c * 0.8 + s * 0.6
        w1 = crot + row * srot
        g = w1 * w1 + srot * srot
        log_r += 0.5 * np.log(g)
        rad = np.sqrt(g)
        c = w1 / rad
        s = srot / rad
    if not (np.isfinite(log_r).all() and counts.sum() > 0):
        raise RuntimeError("reference kernel produced a non-finite result")
    return perf_counter() - t0


def _kernel(_):
    return reference_kernel()


class PairedReference:
    """The reference kernel on two spawned processes at once; a call returns
    the mean of their two times.  Use as a context manager."""

    def __enter__(self):
        self.pool = ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn"))
        return self

    def __call__(self) -> float:
        return statistics.mean(self.pool.map(_kernel, range(2)))

    def __exit__(self, *exc):
        self.pool.shutdown(wait=True)
