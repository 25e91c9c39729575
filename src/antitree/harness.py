"""Configuration, deterministic parallel execution and persistence.

An experiment is a JSON config naming a distribution, a disorder grid, a
growth law, an energy grid, shell and trial counts and a master seed.  The
harness expands the config into independent tasks (one per lyapunov trial,
one per cell otherwise), groups them into contiguous packs of at most
_PACK_COLUMNS columns, runs the packs inline or on a process pool, and
reduces the results in a fixed order, so output files are byte-identical
across reruns and across worker counts: every trial's randomness is keyed
by (seed, cell, trial) and never by schedule.  A pack runs as one call: one
kernel call for a density pack, one per cell for lyapunov, a loop over the
cells otherwise.  A column's value does not depend on which columns share
its call.  If that call raises, each cell of the pack runs alone, so each
value and error is the cell's own.  Data files are written atomically
(temp file + rename) and a JSON manifest records the canonicalized config,
its digest, and a SHA-256 digest per emitted file.  Cell failures are
isolated: the sweep continues, the manifest marks the cell, and the run
exits with code 2.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import AntitreeError, ConfigError, DomainError
from .engine import _mean_stderr, dirichlet_window_average, lyapunov_batch
from .geometry import GrowthLaw, load_custom_sizes, zd_brute_force, zd_printed_variant_count, zd_shell_counts
from .harmonic import mc_moments
from .potentials import PotentialDistribution, effective_quantities, i_lambda, j_lambda
from .spectral import (
    DENSITY_MIN_N,
    classify,
    essential_spectrum,
    free_density_theory,
    grid_halfwidth,
)
from .streams import _whole_count

# widest pack: each column holds about 87 KiB of blocks and scratch (the
# kernel's cost per shell step against columns is tabled in ROADMAP, item 7)
_PACK_COLUMNS = 64
_HARMONIC_LADDER = (2, 4, 8, 100, 1000, 10000)
_GEOMETRY_DIMS = (2, 3, 4)
_GEOMETRY_NMAX = 8


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required key {key!r}")
    return cfg[key]


def build_distribution(block: dict) -> PotentialDistribution:
    try:
        kind = _require(block, "kind")
        if kind in ("bernoulli", "uniform", "triangular"):
            return getattr(PotentialDistribution, kind)()
        if kind == "discrete":
            return PotentialDistribution.discrete(_require(block, "atoms"))
    except (AntitreeError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad distribution: {exc}") from exc
    raise ConfigError(f"unknown distribution kind {kind!r}")


def build_growth(block: dict, base_dir: Path) -> GrowthLaw:
    try:
        if "custom_path" in block:
            return load_custom_sizes(base_dir / block["custom_path"])
        return GrowthLaw.uniform_power(float(_require(block, "d")),
                                       float(block.get("C", 1.0)))
    except (AntitreeError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad growth law: {exc}") from exc


def normalize_config(cfg: dict, *, experiment: str | None = None,
                     seed: int | None = None, out_dir: str | None = None) -> dict:
    """Validate, apply CLI overrides, and return the canonical config dict."""
    cfg = dict(cfg)
    exp = cfg.get("experiment", experiment)
    if experiment is not None and cfg.get("experiment") not in (None, experiment):
        raise ConfigError(
            f"config experiment {cfg['experiment']!r} conflicts with {experiment!r}")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["output_dir"] = out_dir

    lam = cfg.get("lambda", 1.0)
    try:
        lambdas = [float(x) for x in (lam if isinstance(lam, (list, tuple)) else [lam])]
        N = _whole_count(cfg.get("N", 1000), 1, "N")
        trials = _whole_count(cfg.get("trials", 1), 1, "trials")
        seed_val = _whole_count(cfg.get("seed", 0), 0, "seed")
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"lambda, N, trials and seed must be numbers: {exc}") from exc
    if not lambdas:
        raise ConfigError("lambda grid is empty")
    if not all(math.isfinite(x) for x in lambdas):
        raise ConfigError("lambda values must be finite")

    energy = cfg.get("energy", {"min": 0.0, "max": 0.0, "steps": 1})
    try:
        e_min, e_max = float(energy["min"]), float(energy["max"])
        steps = _whole_count(energy.get("steps", 1), 1, "energy.steps")
    except (DomainError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad energy grid: {exc}") from exc
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ConfigError("energy bounds must be finite")
    if steps > 1 and not e_min < e_max:
        raise ConfigError("energy grid needs min < max for steps > 1")

    if exp == "lyapunov" and trials < 2:
        raise ConfigError("lyapunov needs trials >= 2 for the slope standard error")
    if exp == "density" and N < DENSITY_MIN_N:
        raise ConfigError(f"density needs N >= {DENSITY_MIN_N}, as density_estimate does")
    if not 0 <= seed_val < 2 ** 64:
        raise ConfigError("seed must fit in 64 bits")

    normalized = {
        "experiment": exp,
        "distribution": cfg.get("distribution", {"kind": "bernoulli"}),
        "lambda": lambdas,
        "growth": cfg.get("growth", {"d": 1.0, "C": 1.0}),
        "energy": {"min": e_min, "max": e_max, "steps": steps},
        "N": N,
        "trials": trials,
        "seed": seed_val,
        "output_dir": str(cfg.get("output_dir", "out")),
    }
    # fail early on malformed blocks
    build_distribution(normalized["distribution"])
    return normalized


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def energy_grid(cfg: dict) -> np.ndarray:
    e = cfg["energy"]
    return np.linspace(e["min"], e["max"], e["steps"])


# ---------------------------------------------------------------------------
# formatting and atomic output
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """Full-precision CSV field: 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp~")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# experiments: cells, task execution and CSV rows
# ---------------------------------------------------------------------------

def _growth_params(cfg: dict) -> tuple[float, float]:
    g = cfg["growth"]
    if "custom_path" in g:
        return math.nan, math.nan
    return float(g["d"]), float(g.get("C", 1.0))


def _grid(cfg: dict) -> list[tuple[str, float, float]]:
    """(key, lambda, E) per cell of the lambda x energy grid, lambda outermost."""
    return [(f"lambda={lam},E={E}", float(lam), float(E))
            for lam in cfg["lambda"] for E in energy_grid(cfg)]


def _by_cell(tasks: list[dict]) -> list[list[dict]]:
    """The tasks' contiguous runs of one cell each."""
    return [list(run) for _, run in groupby(tasks, key=lambda t: t["cell"])]


def _lyapunov_cells(cfg: dict, base_dir: Path):
    law = build_growth(cfg["growth"], base_dir)
    return [(key, [{"law": law, "E": E, "lam": lam, "N": cfg["N"], "trial": trial,
                    "seed": cfg["seed"]} for trial in range(cfg["trials"])])
            for key, lam, E in _grid(cfg)]


def _lyapunov_pack(tasks: list[dict]) -> list[float]:
    """The trials' slopes, one lyapunov_batch call per cell of the pack.
    Every cell's (E, lam) passes effective_quantities before the first call,
    so a cell outside I(lam) fails the pack before any trial is computed,
    and the fallback to single cells computes no healthy trial twice."""
    cells = _by_cell(tasks)
    for cell in cells:
        effective_quantities(cell[0]["dist"], cell[0]["E"], cell[0]["lam"])
    slopes = []
    for cell in cells:
        t = cell[0]
        slopes += [r.slope for r in lyapunov_batch(t["dist"], t["law"], t["E"], t["lam"],
                                                   t["N"], [s["trial"] for s in cell],
                                                   t["seed"], cell=t["cell"])]
    return slopes


def _lyapunov_rows(cfg: dict, task: dict, values: list):
    d, C = _growth_params(cfg)
    gamma = effective_quantities(task["dist"], task["E"], task["lam"]).gamma
    mean, stderr = _mean_stderr(values)
    return ([[task["E"], task["lam"], d, C, cfg["N"], len(values), mean, stderr, gamma]],)


def _density_cells(cfg: dict, base_dir: Path):
    if len(cfg["lambda"]) != 1:
        raise ConfigError("density experiment takes a single lambda")
    law = build_growth(cfg["growth"], base_dir)
    energies = energy_grid(cfg)
    halfwidth = grid_halfwidth(energies)
    return [(f"E={E}", [{"law": law, "E": float(E), "lam": cfg["lambda"][0], "N": cfg["N"],
                         "trials": cfg["trials"], "seed": cfg["seed"], "halfwidth": halfwidth}])
            for E in energies]


def _density_pack(tasks: list[dict]) -> list[float]:
    """The cells' densities from one call; columns are keyed by cell id, so
    each equals the cell's own call bit for bit."""
    t = tasks[0]
    vals = dirichlet_window_average(t["dist"], t["lam"], t["law"], [s["E"] for s in tasks],
                                    t["N"], t["trials"], t["seed"], t["halfwidth"],
                                    energy_ids=[s["cell"] for s in tasks])
    return [float(v) / math.pi for v in vals]


def _density_rows(cfg: dict, task: dict, values: list):
    theory = free_density_theory(task["E"]) if task["lam"] == 0.0 else None
    return ([[task["E"], values[0], theory]],)


def _phase_cells(cfg: dict, base_dir: Path):
    d, C = _growth_params(cfg)
    if math.isnan(d):
        raise ConfigError("phase-diagram needs a (d, C) growth law")
    return [(key, [{"E": E, "lam": lam, "d": d, "C": C}])
            for key, lam, E in _grid(cfg)]


def _phase_rows(cfg: dict, task: dict, values: list):
    c = values[0]
    return ([[c.E, c.lam, c.d, c.C, c.verdict, c.gamma, c.decay_kind, c.decay_constant]],)


def _harmonic_cells(cfg: dict, base_dir: Path):
    energies = energy_grid(cfg)
    if len(cfg["lambda"]) != 1 or len(energies) != 1:
        raise ConfigError("harmonic-check takes a single lambda and energy")
    return [(f"n={n}", [{"E": float(energies[0]), "lam": cfg["lambda"][0], "n": n,
                         "trials": max(1000, cfg["trials"]), "seed": cfg["seed"]}])
            for n in _HARMONIC_LADDER]


def _harmonic_rows(cfg: dict, task: dict, values: list):
    r = values[0]
    exact1 = r.exact["m1"] if r.exact else None
    exact2 = r.exact["m2"] if r.exact else None
    return ([[r.n, r.m1, r.m1_stderr, r.bounds.first_upper, r.m2, r.m2_stderr,
              r.bounds.second_lo, r.bounds.second_hi, r.m3, exact1, exact2]],)


def _geometry_audit(d: int, n_max: int) -> tuple[list, list]:
    """(shell-count rows, hopping rows) for dimension d, shells 1..n_max."""
    counts_rows = []
    hopping_rows = []
    for n in range(1, n_max + 1):
        formula = zd_shell_counts(d, n)
        oracle = zd_brute_force(d, n)
        for k in range(d + 1):
            s_f = formula.by_zero_count[k]
            s_o = oracle.by_zero_count[k]
            # the printed closed form is stated for n >= d > k only
            in_domain = n >= d > k
            s_p = zd_printed_variant_count(d, n, k) if in_domain else None
            counts_rows.append((d, n, k, s_f, s_o, s_p, s_f == s_o,
                                (s_p == s_o) if in_domain else None))
        if n >= 2:
            hopping_rows.append((d, n, formula.edge_count_out, oracle.edge_count_out,
                                 formula.hopping, oracle.hopping))
    return counts_rows, hopping_rows


def _spectrum_sets(dist: PotentialDistribution, lam: float, C: float) -> list[tuple]:
    rows = []
    for name, iset in (("I", i_lambda(dist, lam)),
                       ("J", j_lambda(dist, lam, C)),
                       ("ess", essential_spectrum(dist, lam))):
        for i, iv in enumerate(iset.intervals):
            rows.append((lam, name, i, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed))
    return rows


def _sets_cells(cfg: dict, base_dir: Path):
    _, C = _growth_params(cfg)
    if math.isnan(C):
        C = 1.0
    return [(f"lambda={lam}", [{"lam": float(lam), "C": C}])
            for lam in cfg["lambda"]]


_GEOMETRY_NOTE = (
    "shell counts use the enumeration-validated formula "
    "C(d,k)*2^(d-k)*C(n-1,d-k-1); the s_printed_variant column shows "
    "the widely quoted variant C(d,k)*2^(d-k)*C(n-1-k,d-1-k), which "
    "disagrees for 0 < k < d-1")
_BERNOULLI_ESS_NOTE = (
    "for the two-point law the positive essential-spectrum component is "
    "[sqrt(1+lambda^2)-1, 1+sqrt(1+lambda^2)]; a printed closed form "
    "elsewhere starts it at 1-sqrt(1+lambda^2), which direct evaluation "
    "of |h|<=2 rules out")


@dataclass(frozen=True)
class _Experiment:
    """Everything the harness knows about one experiment.

    ``cells(cfg, base_dir)`` lists the cells in output order as
    ``(key, [task payload, ...])``, a task being ``trials`` columns wide
    (one when it has no such count); ``run(pack)`` computes the values of a
    pack of contiguous tasks, one per task, in one call, each value as the
    task's cell alone would give it; ``rows(cfg, task, values)`` turns a
    cell's first task and the values of all its tasks, in task order, into
    one row list per entry of ``files``, which pairs each CSV name with its
    header; ``notes(cfg)`` are the manifest's audit notes.  A ``run`` that
    raises for a pack of several cells is called again on each cell alone.
    """

    cells: Callable
    run: Callable
    files: tuple[tuple[str, str], ...]
    rows: Callable
    notes: Callable = lambda cfg: []


_SPECS = {
    "phase-diagram": _Experiment(
        _phase_cells,
        lambda p: [classify(t["dist"], t["lam"], t["d"], t["C"], t["E"]) for t in p],
        (("phase_diagram.csv", "E,lambda,d,C,verdict,gamma,decay_kind,decay_constant"),),
        _phase_rows),
    "lyapunov": _Experiment(
        _lyapunov_cells, _lyapunov_pack,
        (("lyapunov.csv", "E,lambda,d,C,N,trials,slope_mean,slope_stderr,gamma_theory"),),
        _lyapunov_rows),
    "density": _Experiment(
        _density_cells, _density_pack,
        (("density.csv", "E,rho_hat,rho_free_theory"),),
        _density_rows),
    "harmonic-check": _Experiment(
        _harmonic_cells,
        lambda p: [mc_moments(t["dist"], t["E"], t["lam"], t["n"], t["trials"], t["seed"])
                   for t in p],
        (("harmonic_check.csv",
          "n,m1,m1_stderr,m1_bound,m2,m2_stderr,m2_lo,m2_hi,m3,exact_m1,exact_m2"),),
        _harmonic_rows),
    "geometry-audit": _Experiment(
        lambda cfg, base_dir: [(f"d={d}", [{"d": d}]) for d in _GEOMETRY_DIMS],
        lambda p: [_geometry_audit(t["d"], _GEOMETRY_NMAX) for t in p],
        (("geometry_counts.csv", "d,n,k,s_formula,s_bruteforce,s_printed_variant,"
                                 "formula_matches,variant_matches"),
         ("geometry_hopping.csv", "d,n,alpha_formula,alpha_bruteforce,a_formula,a_bruteforce")),
        lambda cfg, task, values: values[0],
        lambda cfg: [_GEOMETRY_NOTE]),
    "spectrum-sets": _Experiment(
        _sets_cells,
        lambda p: [_spectrum_sets(t["dist"], t["lam"], t["C"]) for t in p],
        (("spectrum_sets.csv", "lambda,set,component,lo,hi,lo_closed,hi_closed"),),
        lambda cfg, task, values: (values[0],),
        lambda cfg: [_BERNOULLI_ESS_NOTE]
        if cfg["distribution"].get("kind") == "bernoulli" else []),
}

EXPERIMENTS = tuple(_SPECS)


# ---------------------------------------------------------------------------
# tasks, their execution and the reduction to CSV lines
# ---------------------------------------------------------------------------

def build_tasks(cfg: dict, base_dir: Path) -> list[dict]:
    """One dict per task, in cell order, tagged with its experiment, cell and
    distribution."""
    exp = cfg["experiment"]
    dist = build_distribution(cfg["distribution"])
    return [dict(payload, experiment=exp, cell=cell, key=key, dist=dist)
            for cell, (key, payloads) in enumerate(_SPECS[exp].cells(cfg, base_dir))
            for payload in payloads]


def _pack(tasks: list[dict], threads: int) -> list[list[dict]]:
    """Contiguous runs of the tasks, in order, for the pool to map.

    Tasks share packs of at most _PACK_COLUMNS columns, a task wider than
    that being a pack of its own; the pack count is the least multiple of
    ``threads`` (at most one pack per task) that keeps to the budget, so the
    workers get equal shares, and pack sizes differ by at most one task.
    """
    n = len(tasks)
    per = max(1, _PACK_COLUMNS // max((t.get("trials", 1) for t in tasks), default=1))
    threads = max(1, threads)
    fewest = -(-n // per)
    count = min(n, -(-fewest // threads) * threads)
    return [tasks[i * n // count:(i + 1) * n // count] for i in range(count)]


def _error(exc: AntitreeError) -> dict:
    return {"error": str(exc), "error_type": type(exc).__name__}


def _execute_task(pack: list[dict]) -> list[dict]:
    """Run one pack of tasks, one result per task; never raises (errors are
    data for the manifest).  The pack runs as one call and, if that raises,
    each cell alone, so each value or error is the cell's own."""
    spec = _SPECS[pack[0]["experiment"]]
    cells = _by_cell(pack)
    if len(cells) > 1:
        try:
            return [{"value": v} for v in spec.run(pack)]
        except AntitreeError:
            pass
    results = []
    for cell in cells:
        try:
            results += [{"value": v} for v in spec.run(cell)]
        except AntitreeError as exc:
            results += [_error(exc)] * len(cell)
    return results


def _reduce(cfg: dict, tasks: list[dict], results: list[dict]):
    """Assemble CSV lines and cell statuses in deterministic cell order."""
    spec = _SPECS[cfg["experiment"]]
    by_cell: dict[int, tuple[dict, list[dict]]] = {}
    for task, res in zip(tasks, results):
        by_cell.setdefault(task["cell"], (task, []))[1].append(res)
    files = {name: [header] for name, header in spec.files}
    cells = []
    for task, res in by_cell.values():
        errors = [r for r in res if "error" in r]
        if errors:
            cells.append({"key": task["key"], "status": "failed",
                          "error": f"{errors[0]['error_type']}: {errors[0]['error']}"})
            continue
        cells.append({"key": task["key"], "status": "ok"})
        for lines, rows in zip(files.values(), spec.rows(cfg, task, [r["value"] for r in res])):
            lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return files, cells


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(config: dict, *, threads: int = 1, base_dir: Path | str = ".") -> tuple[dict, int]:
    """Run a normalized config; returns (manifest, exit_code) and writes files.

    Exit code 0 on full success, 2 when some cells failed (their rows are
    dropped, the rest of the sweep survives).  Config errors raise before
    anything is written.
    """
    t_start = time.monotonic()
    base_dir = Path(base_dir)
    tasks = build_tasks(config, base_dir)
    packs = _pack(tasks, threads)
    if threads > 1 and len(packs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(_execute_task, packs))
    else:
        done = [_execute_task(p) for p in packs]
    files, cells = _reduce(config, tasks, [r for results in done for r in results])

    out_dir = base_dir / config["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    file_entries = []
    for name in sorted(files):
        data = ("\n".join(files[name]) + "\n").encode()
        atomic_write(out_dir / name, data)
        file_entries.append({"name": name, "sha256": _sha256(data), "bytes": len(data)})

    failed = [c for c in cells if c["status"] != "ok"]
    manifest = {
        "tool": "antitree",
        "version": __version__,
        "experiment": config["experiment"],
        "config": config,
        "config_digest": config_digest(config),
        "seed": config["seed"],
        "stream_scheme": "sfc64 block b: words [4b, 4b + 4) of seed_sequence("
                         "entropy=seed, spawn_key=(domain, cell, trial)).generate_state; "
                         "harmonic-check: one sfc64 stream of seed_sequence(entropy=seed, "
                         "spawn_key=(5, n)), continued across its blocks",
        "threads": threads,
        "wall_time_s": time.monotonic() - t_start,
        "files": file_entries,
        "cells": cells,
        "status": "partial" if failed else "ok",
        "audit_notes": _SPECS[config["experiment"]].notes(config),
    }
    atomic_write(out_dir / "manifest.json",
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest, (2 if failed else 0)

