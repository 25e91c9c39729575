"""Streams, config handling, experiment runs, and reproducibility."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antitree.harness as harness
from antitree import (
    AntitreeError,
    ConfigError,
    GrowthLaw,
    PotentialDistribution,
    effective_quantities,
    lyapunov_batch,
    lyapunov_estimate,
    seed_stream,
)
from antitree.cli import main as cli_main
from antitree.engine import dirichlet_window_average
from antitree.harness import (
    _PACK_COLUMNS,
    _pack,
    build_tasks,
    canonical_json,
    config_digest,
    energy_grid,
    fmt,
    load_config,
    normalize_config,
    run_experiment,
)
from antitree.spectral import grid_halfwidth


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def test_public_names_are_pinned():
    # a name enters or leaves the package surface only by editing this list
    import antitree
    assert sorted(antitree.__all__) == [
        "AntitreeError", "ConfigError", "DecayReport", "DegenerateDenominatorError",
        "DensityEstimate", "DistributionError", "DomainError", "EffectiveQuantities",
        "GrowthLaw", "InsufficientTrialsError", "Interval", "IntervalSet", "InvalidLawError",
        "MomentBounds", "MomentReport", "PotentialDistribution", "SingularShellError",
        "SizeLimitError", "SpectralClassification", "SubordinacyRecord", "TrajectoryRecord",
        "WeylPoint", "ZdShellData", "checkpoints_geometric", "classify", "decay_check",
        "density_estimate", "effective_quantities", "engine", "enumerate_moments", "errors",
        "essential_spectrum", "free_density_theory", "geometry", "harmonic", "i_lambda",
        "inverse_moment", "j_lambda", "load_custom_sizes",
        "lyapunov_batch", "lyapunov_estimate", "m_function", "mc_moments", "moment_bounds",
        "potentials", "sample", "second_inverse_moment", "seed_stream", "spectral", "streams",
        "subordinacy_batch", "zd_brute_force", "zd_hopping", "zd_shell_counts",
    ]


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the package and its CLI holds no scipy module
    import antitree
    src = str(Path(antitree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, antitree, antitree.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, text=True,
                         stdout=subprocess.PIPE, timeout=60).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_stream_replay_is_exact():
    a = seed_stream(42, 1, 2, 3).uniform(size=1000)
    b = seed_stream(42, 1, 2, 3).uniform(size=1000)
    assert np.array_equal(a, b)


def test_streams_decorrelated_across_ids_and_seeds():
    n = 10 ** 5
    base = seed_stream(42, 7).uniform(size=n)
    sibling = seed_stream(42, 8).uniform(size=n)
    reseeded = seed_stream(43, 7).uniform(size=n)
    for other in (sibling, reseeded):
        r = np.corrcoef(base, other)[0, 1]
        assert abs(r) < 0.01


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _config(**overrides):
    cfg = {
        "experiment": "lyapunov",
        "distribution": {"kind": "bernoulli"},
        "lambda": 1.0,
        "growth": {"d": 1.5, "C": 1.0},
        "energy": {"min": 2.0, "max": 2.0, "steps": 1},
        "N": 2000,
        "trials": 8,
        "seed": 42,
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def test_normalize_applies_overrides():
    cfg = normalize_config(_config(), seed=7, out_dir="elsewhere")
    assert cfg["seed"] == 7
    assert cfg["output_dir"] == "elsewhere"
    assert cfg["lambda"] == [1.0]
    # integral floats, as JSON writes 2e3, are whole numbers
    assert normalize_config(_config(N=2e3))["N"] == 2000


def test_normalize_rejects_bad_input():
    with pytest.raises(ConfigError):
        normalize_config(_config(experiment="unknown"))
    with pytest.raises(ConfigError):
        normalize_config(_config(), experiment="density")  # conflicts
    with pytest.raises(ConfigError):
        normalize_config(_config(energy={"min": 2.0, "max": 1.0, "steps": 5}))
    with pytest.raises(ConfigError):
        normalize_config(_config(trials=0))
    with pytest.raises(ConfigError):
        normalize_config(_config(distribution={"kind": "gaussian"}))
    # non-numeric or non-finite values are config errors, not bare exceptions
    for bad in ({"N": "many"}, {"trials": None}, {"lambda": "x"}, {"seed": "s"},
                {"lambda": [math.nan]}, {"lambda": math.inf}, {"N": math.inf},
                {"energy": {"min": -math.inf, "max": 1.0, "steps": 1}},
                {"energy": {"min": 0.0, "max": math.nan, "steps": 1}},
                # counts are whole numbers: no silent truncation or booleans
                {"N": 2.7}, {"trials": True}, {"seed": 1.9},
                {"energy": {"min": 1.0, "max": 2.0, "steps": 2.5}},
                {"distribution": {"kind": "discrete", "atoms": [[1, "a"]]}},
                {"distribution": None}):
        with pytest.raises(ConfigError):
            normalize_config(_config(**bad))
    # growth blocks are built with the tasks, against the config's directory
    for bad in ({"d": "x"}, {"d": None}, {"d": 1.5, "C": "a"}, {"custom_path": "absent.txt"}):
        with pytest.raises(ConfigError):
            build_tasks(normalize_config(_config(growth=bad)), Path("."))


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert config_digest({"x": 1}) == config_digest({"x": 1})


def test_fmt_full_precision():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(None) == ""
    assert fmt(7) == "7"
    assert fmt(True) == "true"
    assert fmt("sc") == "sc"


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([_config()]))
    with pytest.raises(ConfigError):
        load_config(listed)


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def _run(tmp_path, cfg, threads=1):
    config = normalize_config(cfg)
    manifest, code = run_experiment(config, threads=threads, base_dir=tmp_path)
    return manifest, code


def test_lyapunov_run_and_rerun(tmp_path):
    cfg = _config(output_dir="a")
    manifest, code = _run(tmp_path, cfg)
    assert code == 0
    data = (tmp_path / "a" / "lyapunov.csv").read_bytes()
    assert data.decode().splitlines()[0] == (
        "E,lambda,d,C,N,trials,slope_mean,slope_stderr,gamma_theory")
    manifest2, _ = _run(tmp_path, _config(output_dir="b"))
    data2 = (tmp_path / "b" / "lyapunov.csv").read_bytes()
    assert data == data2
    assert manifest["files"][0]["sha256"] == manifest2["files"][0]["sha256"]


def test_thread_count_does_not_change_bytes(tmp_path):
    cfg = _config(trials=70, N=1000, energy={"min": 1.8, "max": 2.2, "steps": 2})
    _run(tmp_path, dict(cfg, output_dir="t1"), threads=1)
    _run(tmp_path, dict(cfg, output_dir="t4"), threads=4)
    assert (tmp_path / "t1" / "lyapunov.csv").read_bytes() == \
        (tmp_path / "t4" / "lyapunov.csv").read_bytes()


def test_lyapunov_rows_are_the_api_estimate(tmp_path):
    # the CSV's slope columns are lyapunov_estimate of the cell's records,
    # bit for bit (17 significant digits round-trip), though the first
    # cell's trials are split over two packs
    cfg = _config(trials=70, N=1000, energy={"min": 1.8, "max": 2.2, "steps": 2})
    _run(tmp_path, dict(cfg, output_dir="e"))
    rows = (tmp_path / "e" / "lyapunov.csv").read_text().splitlines()[1:]
    law = GrowthLaw.uniform_power(1.5, 1.0)
    for cell, (E, row) in enumerate(zip((1.8, 2.2), rows, strict=True)):
        records = lyapunov_batch(PotentialDistribution.bernoulli(), law, E, 1.0, 1000,
                                 range(70), seed=42, cell=cell)
        mean, stderr = lyapunov_estimate(records)
        assert row.split(",")[5:8] == ["70", fmt(mean), fmt(stderr)]


def test_partial_failure_isolates_cells(tmp_path):
    cfg = _config(energy={"min": 2.0, "max": 3.0, "steps": 2}, output_dir="p")
    manifest, code = _run(tmp_path, cfg)
    assert code == 2
    assert manifest["status"] == "partial"
    status = {c["key"]: c["status"] for c in manifest["cells"]}
    assert status["lambda=1.0,E=2.0"] == "ok"
    assert status["lambda=1.0,E=3.0"] == "failed"
    rows = (tmp_path / "p" / "lyapunov.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the surviving cell


def test_manifest_digests_match_files(tmp_path):
    import hashlib
    manifest, _ = _run(tmp_path, _config(output_dir="m"))
    for entry in manifest["files"]:
        data = (tmp_path / "m" / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
    on_disk = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert on_disk["config_digest"] == manifest["config_digest"]
    # the manifest echoes the config
    assert on_disk["config"]["seed"] == 42
    assert on_disk["stream_scheme"] == ("sfc64 block b: words [4b, 4b + 4) of seed_sequence("
                                        "entropy=seed, spawn_key=(domain, cell, trial))"
                                        ".generate_state")


def test_density_experiment_headers_and_theory(tmp_path):
    cfg = {
        "experiment": "density",
        "distribution": {"kind": "bernoulli"},
        "lambda": 0.0,
        "growth": {"d": 1.0, "C": 1.0},
        "energy": {"min": -1.0, "max": 1.0, "steps": 3},
        "N": 2000, "trials": 6, "seed": 3, "output_dir": "d",
    }
    manifest, code = _run(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "d" / "density.csv").read_text().splitlines()
    assert lines[0] == "E,rho_hat,rho_free_theory"
    mid = lines[2].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(1.0 / math.pi, rel=0.05)
    assert float(mid[2]) == pytest.approx(1.0 / math.pi, rel=1e-12)


def _density_config(**overrides):
    cfg = {"experiment": "density", "distribution": {"kind": "bernoulli"}, "lambda": 1.0,
           "growth": {"d": 1.5, "C": 1.0}, "N": 1000, "seed": 9}
    cfg.update(overrides)
    return cfg


def _cell_lines(cfg):
    """density.csv's rows from one dirichlet_window_average call per cell, or
    the cell's typed error."""
    cfg = normalize_config(cfg)
    energies = energy_grid(cfg)
    law = GrowthLaw.uniform_power(cfg["growth"]["d"], cfg["growth"]["C"])
    out = []
    for cell, E in enumerate(energies):
        try:
            val = dirichlet_window_average(PotentialDistribution.bernoulli(), cfg["lambda"][0],
                                           law, [float(E)], cfg["N"], cfg["trials"],
                                           cfg["seed"], grid_halfwidth(energies),
                                           energy_ids=[cell])[0]
        except AntitreeError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append(f"{fmt(float(E))},{fmt(float(val) / math.pi)},")
    return out


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_density_packs_equal_per_cell_calls(tmp_path, threads):
    # 20 energies x 8 trials span several packs; the lambda = 1 draws are
    # keyed by the cell, so any mix-up of cells within a pack shows
    cfg = _density_config(energy={"min": 1.8, "max": 2.6, "steps": 20}, trials=8,
                          output_dir="o")
    assert len(_pack(build_tasks(normalize_config(cfg), tmp_path), threads)) > 1
    _, code = _run(tmp_path, cfg, threads)
    assert code == 0
    lines = (tmp_path / "o" / "density.csv").read_text().splitlines()
    assert lines[1:] == _cell_lines(cfg)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pooled_sweep_bytes_do_not_depend_on_the_start_method(tmp_path, monkeypatch, method):
    # workers that import the package afresh draw what the serial run draws
    context = multiprocessing.get_context(method)
    pool = harness.ProcessPoolExecutor
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: pool(max_workers=max_workers, mp_context=context))
    cfg = _density_config(energy={"min": 1.8, "max": 2.6, "steps": 40}, trials=8)
    for threads in (1, 2):
        _, code = _run(tmp_path, dict(cfg, output_dir=f"t{threads}"), threads)
        assert code == 0
    assert (tmp_path / "t1" / "density.csv").read_bytes() == \
        (tmp_path / "t2" / "density.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_density_pack_failure_falls_back_to_cells(tmp_path, threads):
    # with an odd trial count the middle offset is 0: E = 1.0 sits on the
    # atom v = 1 and fails, which fails its pack's joint call
    cfg = _density_config(energy={"min": 0.5, "max": 1.5, "steps": 3}, trials=3,
                          output_dir="f")
    manifest, code = _run(tmp_path, cfg, threads)
    assert code == 2
    expected = _cell_lines(cfg)
    assert expected[1] == "DomainError: E - lam*v vanishes at an atom"
    assert manifest["cells"] == [{"key": "E=0.5", "status": "ok"},
                                 {"key": "E=1.0", "status": "failed", "error": expected[1]},
                                 {"key": "E=1.5", "status": "ok"}]
    lines = (tmp_path / "f" / "density.csv").read_text().splitlines()
    assert lines[1:] == [expected[0], expected[2]]


def _pack_tasks(kind, cells, trials):
    """Tasks as build_tasks shapes them: a density cell of ``trials``
    columns, a lyapunov trial of one, an analytic cell of one."""
    if kind == "density":
        return [{"experiment": kind, "cell": c, "trials": trials} for c in range(cells)]
    if kind == "lyapunov":
        return [{"experiment": kind, "cell": c, "trial": t}
                for c in range(cells) for t in range(trials)]
    return [{"experiment": kind, "cell": c} for c in range(cells)]


@settings(max_examples=90, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["density", "lyapunov", "phase-diagram"]),
       cells=st.integers(1, 120), trials=st.integers(1, 100), threads=st.integers(1, 8))
def test_pack_is_contiguous_budgeted_and_balanced(kind, cells, trials, threads):
    tasks = _pack_tasks(kind, cells, trials)
    width = trials if kind == "density" else 1
    packs = _pack(tasks, threads)
    # contiguous runs that cover every task in order
    assert all(packs) and [t for p in packs for t in p] == tasks
    # within the budget, but for a lone oversized task
    assert all(len(p) * width <= _PACK_COLUMNS or len(p) == 1 for p in packs)
    # equal shares per worker: a multiple of the threads, unless every task
    # already has a pack of its own, and sizes within one of each other
    assert len(packs) % threads == 0 or len(packs) == len(tasks)
    assert max(map(len, packs)) - min(map(len, packs)) <= 1
    # and no more of them: one share fewer would break the budget
    per = max(1, _PACK_COLUMNS // width)
    assert len(packs) <= threads or (len(packs) - threads) * per < len(tasks)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(experiment=st.sampled_from(["lyapunov", "density"]),
       law=st.sampled_from(["bernoulli", "uniform", "triangular"]), cells=st.integers(1, 6),
       trials=st.integers(1, 70), N=st.integers(1000, 2000), lam=st.sampled_from([0.0, 1.0]),
       E0=st.floats(-2.5, 2.0))
# the derandomized examples draw continuous potentials only once (uniform, density)
@example(experiment="lyapunov", law="triangular", cells=3, trials=33, N=1500, lam=1.0, E0=1.5)
def test_csv_and_cells_are_identical_across_thread_counts(tmp_path_factory, experiment, law,
                                                          cells, trials, N, lam, E0):
    # up to 70 trials: density packs cross the 64-column budget and lyapunov
    # cells straddle packs; cells outside I(lam) fail, and must fail alike
    if experiment == "lyapunov":
        trials = max(trials, 2)
    cfg = {"experiment": experiment, "distribution": {"kind": law}, "lambda": lam,
           "growth": {"d": 1.5, "C": 1.0}, "N": N, "trials": trials, "seed": 13,
           "energy": {"min": E0, "max": E0 + 0.5, "steps": cells}}
    base = tmp_path_factory.mktemp("threads")
    runs = [_run(base, dict(cfg, output_dir=f"t{threads}"), threads)[0]
            for threads in (1, 2, 3)]
    assert runs[1]["cells"] == runs[0]["cells"] == runs[2]["cells"]
    csv = [(base / f"t{threads}" / f"{experiment}.csv").read_bytes() for threads in (1, 2, 3)]
    assert csv[1] == csv[0] == csv[2]


def _lyapunov_lines(cfg):
    """lyapunov.csv's rows and the manifest's cells from one lyapunov_batch
    call per cell."""
    cfg = normalize_config(cfg)
    law = GrowthLaw.uniform_power(cfg["growth"]["d"], cfg["growth"]["C"])
    rows, cells = [], []
    for cell, E in enumerate(energy_grid(cfg)):
        key = f"lambda=1.0,E={E}"
        try:
            records = lyapunov_batch(PotentialDistribution.bernoulli(), law, float(E), 1.0,
                                     cfg["N"], range(cfg["trials"]), cfg["seed"], cell=cell)
        except AntitreeError as exc:
            cells.append({"key": key, "status": "failed",
                          "error": f"{type(exc).__name__}: {exc}"})
            continue
        cells.append({"key": key, "status": "ok"})
        mean, stderr = lyapunov_estimate(records)
        gamma = effective_quantities(PotentialDistribution.bernoulli(), float(E), 1.0).gamma
        rows.append(",".join(fmt(v) for v in (float(E), 1.0, 1.5, 1.0, cfg["N"],
                                              cfg["trials"], mean, stderr, gamma)))
    return rows, cells


def _failing_cell_config():
    # 4 cells x 65 trials make 5 packs at one thread and 6 at two or three;
    # E = 0 lies in the support hull and fails, and shares packs with a
    # neighbour
    return _config(energy={"min": -2.4, "max": 1.2, "steps": 4}, trials=65, N=500,
                   output_dir="o")


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lyapunov_packs_equal_per_cell_calls(tmp_path, threads):
    cfg = _failing_cell_config()
    packs = _pack(build_tasks(normalize_config(cfg), tmp_path), threads)
    assert any({t["cell"] for t in p} == {2, 3} for p in packs)
    manifest, code = _run(tmp_path, cfg, threads)
    assert code == 2
    rows, cells = _lyapunov_lines(cfg)
    assert [c["status"] for c in cells] == ["ok", "ok", "failed", "ok"]
    assert manifest["cells"] == cells
    assert (tmp_path / "o" / "lyapunov.csv").read_text().splitlines()[1:] == rows


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lyapunov_packs_compute_each_healthy_trial_once(tmp_path, monkeypatch, threads):
    # the failing cell takes its domain error without a call, so the trials
    # of the healthy cell that shares its pack are not computed twice
    called = []
    batch = harness.lyapunov_batch

    def counted(dist, law, E, lam, N, trial_ids, seed, cell):
        called.extend((cell, t) for t in trial_ids)
        return batch(dist, law, E, lam, N, trial_ids, seed, cell=cell)

    monkeypatch.setattr(harness, "lyapunov_batch", counted)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    manifest, code = _run(tmp_path, _failing_cell_config(), threads)
    assert code == 2
    assert [c["status"] for c in manifest["cells"]] == ["ok", "ok", "failed", "ok"]
    assert sorted(called) == [(c, t) for c in (0, 1, 3) for t in range(65)]


class _InlinePool:
    """ProcessPoolExecutor's context and map, run in this process."""

    def __init__(self, max_workers):
        self.maps = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.maps.append(len(items))
        return map(fn, items)


@pytest.mark.parametrize("energies, threads, calls", [
    # one cell of 100 trials: 2 packs of 50, one call each
    (1, 2, [(0, 0, 50), (0, 50, 100)]),
    # 300 trials: 5 packs of 60, one call per pack and cell
    (3, 1, [(0, 0, 60), (0, 60, 100), (1, 0, 20), (1, 20, 80), (1, 80, 100),
            (2, 0, 40), (2, 40, 100)]),
])
def test_lyapunov_makes_one_call_per_pack_and_cell(tmp_path, monkeypatch, energies, threads,
                                                   calls):
    made, pools = [], []
    batch = harness.lyapunov_batch

    def counted(dist, law, E, lam, N, trial_ids, seed, cell):
        made.append((cell, trial_ids[0], trial_ids[-1] + 1))
        assert trial_ids == list(range(trial_ids[0], trial_ids[-1] + 1))
        return batch(dist, law, E, lam, N, trial_ids, seed, cell=cell)

    def pool(max_workers):
        pools.append(_InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(harness, "lyapunov_batch", counted)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
    cfg = _config(energy={"min": 1.8, "max": 2.2, "steps": energies}, trials=100, N=500,
                  output_dir="c")
    _, code = _run(tmp_path, cfg, threads)
    assert code == 0
    assert made == calls
    assert [p.maps for p in pools] == ([[2]] if threads > 1 else [])
    assert (tmp_path / "c" / "lyapunov.csv").read_text().splitlines()[1:] == \
        _lyapunov_lines(cfg)[0]


def test_phase_diagram_experiment(tmp_path):
    cfg = {
        "experiment": "phase-diagram",
        "distribution": {"kind": "bernoulli"},
        "lambda": [1.0],
        "growth": {"d": 2.0, "C": 1.0},
        "energy": {"min": 2.0, "max": 2.3, "steps": 2},
        "N": 1, "trials": 1, "seed": 1, "output_dir": "ph",
    }
    _, code = _run(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "ph" / "phase_diagram.csv").read_text().splitlines()
    assert lines[0] == "E,lambda,d,C,verdict,gamma,decay_kind,decay_constant"
    assert lines[1].split(",")[4] == "sc"
    assert lines[2].split(",")[4] == "pp"


def test_harmonic_check_experiment(tmp_path):
    cfg = {
        "experiment": "harmonic-check",
        "distribution": {"kind": "bernoulli"},
        "lambda": 1.0,
        "growth": {"d": 1.0, "C": 1.0},
        "energy": {"min": 2.0, "max": 2.0, "steps": 1},
        "N": 1, "trials": 5000, "seed": 5, "output_dir": "h",
    }
    _, code = _run(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "h" / "harmonic_check.csv").read_text().splitlines()
    assert lines[0] == (
        "n,m1,m1_stderr,m1_bound,m2,m2_stderr,m2_lo,m2_hi,m3,exact_m1,exact_m2")
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["n"] == "2"
    assert float(first["exact_m1"]) == pytest.approx(0.25, abs=1e-12)
    assert float(first["m1_bound"]) == pytest.approx(0.375, abs=1e-12)
    # large n rows have no enumeration columns
    last = lines[-1].split(",")
    assert last[-1] == "" and last[-2] == ""


def test_geometry_audit_experiment(tmp_path):
    cfg = {
        "experiment": "geometry-audit",
        "distribution": {"kind": "bernoulli"},
        "lambda": 1.0,
        "growth": {"d": 2.0, "C": 1.0},
        "energy": {"min": 0.0, "max": 0.0, "steps": 1},
        "N": 8, "trials": 1, "seed": 1, "output_dir": "g",
    }
    _, code = _run(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "g" / "geometry_counts.csv").read_text().splitlines()
    assert lines[0] == (
        "d,n,k,s_formula,s_bruteforce,s_printed_variant,formula_matches,variant_matches")
    body = [ln.split(",") for ln in lines[1:]]
    assert all(row[6] == "true" for row in body)          # formula == oracle
    mismatches = [row for row in body if row[7] == "false"]
    assert mismatches                                     # printed variant differs
    assert any(row[:3] == ["3", "3", "1"] for row in mismatches)
    hop = (tmp_path / "g" / "geometry_hopping.csv").read_text().splitlines()
    assert hop[0] == "d,n,alpha_formula,alpha_bruteforce,a_formula,a_bruteforce"


def test_spectrum_sets_experiment(tmp_path):
    cfg = {
        "experiment": "spectrum-sets",
        "distribution": {"kind": "bernoulli"},
        "lambda": [1.0],
        "growth": {"d": 2.0, "C": 1.0},
        "energy": {"min": 0.0, "max": 0.0, "steps": 1},
        "N": 1, "trials": 1, "seed": 1, "output_dir": "s",
    }
    manifest, code = _run(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "s" / "spectrum_sets.csv").read_text().splitlines()
    assert lines[0] == "lambda,set,component,lo,hi,lo_closed,hi_closed"
    by_set = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        by_set.setdefault(parts[1], []).append(parts)
    assert float(by_set["I"][1][4]) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-8)
    assert len(by_set["ess"]) == 2
    assert manifest["audit_notes"]


def test_custom_growth_from_file(tmp_path):
    shells = tmp_path / "shells.txt"
    shells.write_text("\n".join(str(max(1, n)) for n in range(0, 301)) + "\n")
    cfg = _config(growth={"custom_path": "shells.txt"}, N=300, output_dir="c")
    manifest, code = _run(tmp_path, cfg)
    assert code == 0
    line = (tmp_path / "c" / "lyapunov.csv").read_text().splitlines()[1]
    assert line.split(",")[2] == "nan"  # no (d, C) for custom laws


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(N=500, trials=4)))
    code = cli_main(["lyapunov", "--config", str(cfg_path), "--out", "cli_out"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1/1 cells ok" in out
    assert (tmp_path / "cli_out" / "lyapunov.csv").exists()


def test_cli_conflicting_experiment(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config()))
    code = cli_main(["density", "--config", str(cfg_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_growth_file_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(growth={"custom_path": "absent.txt"})))
    code = cli_main(["lyapunov", "--config", str(cfg_path), "--out", "cli_out"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cli_out").exists()


def test_cli_lyapunov_needs_two_trials(tmp_path, capsys):
    # trials defaults to 1, which leaves the slope standard error undefined
    cfg = _config(N=500)
    del cfg["trials"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["lyapunov", "--config", str(cfg_path), "--out", "cli_out"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cli_out").exists()


def test_cli_density_needs_the_estimators_shell_count(tmp_path, capsys):
    # the CLI density experiment has the domain of density_estimate
    cfg = {"experiment": "density", "distribution": {"kind": "bernoulli"}, "lambda": 0.0,
           "growth": {"d": 1.0, "C": 1.0}, "energy": {"min": -1.0, "max": 1.0, "steps": 2},
           "N": 10, "trials": 2, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["density", "--config", str(cfg_path), "--out", "cli_out"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cli_out").exists()


def test_cli_missing_config(tmp_path, capsys):
    code = cli_main(["lyapunov", "--config", str(tmp_path / "absent.json")])
    assert code == 1
