"""The three benchmark workloads: inputs, one compute call, and its checks.

Each workload is built from a master seed that the benchmark derives from
its ``--seed`` argument; the package sees only these generated inputs.
``call()`` is the unit that is timed and repeated; it looks every entry point
up through its module at call time, so the tracer's wrappers apply.
``check(out)`` counts attempted and failed operations (a trial record or a
sweep cell; an operation fails on a typed error, a non-finite value in its
output or a failed correctness gate) and returns a digest of the output, so
repetitions can be required to agree bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import antitree.cli
import antitree.engine
from antitree import AntitreeError, GrowthLaw, PotentialDistribution

GAMMA_BERNOULLI = 9.0 / 56.0


@dataclass
class Check:
    attempted: int
    failed: int
    gates: dict[str, bool]
    digest: str
    notes: dict = field(default_factory=dict)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class EnsembleBernoulli:
    """Criterion-3 shape: growth exponent over 100 Bernoulli trials."""

    name = "ensemble-bernoulli"
    N = 50_000
    TRIALS = 100
    E, LAM, D, C = 2.0, 1.0, 1.5, 1.0
    TOL = 0.15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dist = PotentialDistribution.bernoulli()
        self.law = GrowthLaw.uniform_power(self.D, self.C)
        self.trials = list(range(self.TRIALS))
        self.shell_steps = self.N * self.TRIALS

    def call(self):
        try:
            return antitree.engine.lyapunov_batch(self.dist, self.law, self.E, self.LAM,
                                                  self.N, self.trials, self.seed)
        except AntitreeError as exc:
            return exc

    def check(self, out) -> Check:
        if isinstance(out, AntitreeError):
            return Check(self.TRIALS, self.TRIALS, {"slope_within_15pct": False},
                         type(out).__name__, {"error": repr(out)})
        slopes = np.array([r.slope for r in out])
        finite = np.array([np.isfinite(r.log_r).all() and math.isfinite(r.slope) for r in out])
        mean = float(slopes[finite].mean()) if finite.any() else math.nan
        gate = abs(mean - GAMMA_BERNOULLI) <= self.TOL * GAMMA_BERNOULLI
        failed = int((~finite).sum()) if gate else len(out)
        return Check(len(out), failed, {"slope_within_15pct": bool(gate)},
                     _digest(r.log_r for r in out),
                     {"slope_mean": mean, "gamma_theory": GAMMA_BERNOULLI})


class Subordinacy:
    """Two Gram-on subordinacy cells; the second holds the known overflow."""

    name = "subordinacy"
    N = 10_000
    # (law, d, E, lam, trials)
    CELLS = (("uniform", 1.5, 2.0, 1.0, 16), ("bernoulli", 1.0, 10.5, 10.0, 4))
    FIELDS = ("log_ratio", "log_ratio_grid", "log_sub", "log_dom")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cells = [(getattr(PotentialDistribution, law)(), GrowthLaw.uniform_power(d, 1.0),
                       E, lam, list(range(trials)))
                      for law, d, E, lam, trials in self.CELLS]
        # forward and backward passes each step every trial through N shells
        self.shell_steps = 2 * self.N * sum(c[-1] for c in self.CELLS)

    def call(self):
        out = []
        for cell, (dist, law, E, lam, trials) in enumerate(self.cells):
            try:
                out.append(antitree.engine.subordinacy_batch(
                    dist, law, E, lam, self.N, trials, self.seed, cell=cell, with_gram=True))
            except AntitreeError as exc:
                out.append(exc)
        return out

    def check(self, out) -> Check:
        attempted = failed = 0
        nonfinite = []
        arrays = []
        for res, (*_, trials) in zip(out, self.CELLS):
            attempted += trials
            if isinstance(res, AntitreeError):
                failed += trials
                nonfinite.append(type(res).__name__)
                continue
            bad = 0
            for rec in res:
                vals = [getattr(rec, f) for f in self.FIELDS]
                arrays.extend(vals)
                n = sum(int((~np.isfinite(v)).sum()) for v in vals)
                bad += n
                failed += n > 0
            nonfinite.append(bad)
        return Check(attempted, failed, {}, _digest(arrays),
                     {"nonfinite_checkpoints_per_cell": nonfinite})


class DensitySweep:
    """Criterion-5 mass-check shape through the CLI and the process pool."""

    name = "density-sweep"
    N = 10_000
    TRIALS = 8
    CELLS = 40
    THREADS = 2
    MASS_TOL = 0.03

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.config = workdir / "density.json"
        # cell midpoints of (-2, 2); the harness mollifies over half a cell
        half = 2.0 / self.CELLS
        cfg = {"experiment": "density", "distribution": {"kind": "bernoulli"},
               "lambda": 0.0, "growth": {"d": 1.0, "C": 1.0},
               "energy": {"min": -2.0 + half, "max": 2.0 - half, "steps": self.CELLS},
               "N": self.N, "trials": self.TRIALS, "seed": seed, "output_dir": "out"}
        self.config.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        self.shell_steps = self.N * self.CELLS * self.TRIALS
        self.reference_sha = None

    def argv(self, threads: int) -> list[str]:
        return ["density", "--config", str(self.config), "--out", f"out-t{threads}",
                "--threads", str(threads)]

    def call(self, threads: int | None = None):
        threads = self.THREADS if threads is None else threads
        with contextlib.redirect_stdout(io.StringIO()):
            code = antitree.cli.main(self.argv(threads))
        out = self.workdir / f"out-t{threads}"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return code, (out / "density.csv").read_bytes(), manifest

    def set_reference(self, out) -> None:
        """The --threads 1 output that every pooled run must equal byte for byte."""
        self.reference_sha = hashlib.sha256(out[1]).hexdigest()

    def check(self, out) -> Check:
        code, data, manifest = out
        sha = hashlib.sha256(data).hexdigest()
        failed_cells = {c["key"] for c in manifest["cells"] if c["status"] != "ok"}
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        rho = [float(r["rho_hat"]) for r in rows]
        bad = len(failed_cells) + sum(not math.isfinite(x) for x in rho)
        mass = sum(rho) * 4.0 / self.CELLS
        gates = {"mass_within_3pct": abs(mass - 1.0) <= self.MASS_TOL,
                 "csv_identical_to_threads_1": sha == self.reference_sha}
        failed = self.CELLS if not all(gates.values()) else bad
        return Check(self.CELLS, failed, gates, sha,
                     {"mass": mass, "exit_code": code, "csv_sha256": sha})


WORKLOADS = {w.name: w for w in (EnsembleBernoulli, Subordinacy, DensitySweep)}
