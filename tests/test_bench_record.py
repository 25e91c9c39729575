"""bench/record.py reads a benchmark run's lines and appends trajectory entries."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

RUN_STDOUT = "\n".join([
    'env {"cpu": "x", "python": "3.11"}',
    'check {"deterministic": true, "gates": {}}',
    '{"correct": true, "attempted": 40, "failed": 0, '
    '"metrics": {"wall_s": {"value": 0.05, "unit": "s"}}}',
]) + "\n"


def test_parse_run_reads_env_check_and_result():
    run = record.parse_run(RUN_STDOUT)
    assert run["env"] == {"cpu": "x", "python": "3.11"}
    assert run["check"]["deterministic"] is True
    assert run["result"]["metrics"]["wall_s"]["value"] == 0.05


def test_parse_run_requires_every_line():
    with pytest.raises(ValueError):
        record.parse_run(RUN_STDOUT.split("\n", 1)[1])
    with pytest.raises(ValueError):
        record.parse_run("")


def test_append_keeps_earlier_entries(tmp_path):
    path = tmp_path / "BENCH_w.json"
    record.append(path, {"revision": "a"})
    record.append(path, {"revision": "b"})
    assert [e["revision"] for e in json.loads(path.read_text())] == ["a", "b"]
