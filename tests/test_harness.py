"""Streams, config handling, experiment runs, and reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from antitree import ConfigError, seed_stream
from antitree.cli import main as cli_main
from antitree.harness import (
    build_tasks,
    canonical_json,
    config_digest,
    fmt,
    load_config,
    normalize_config,
    run_experiment,
)


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
    assert "stream_scheme" in on_disk


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
