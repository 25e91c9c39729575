"""Self-tests of the benchmark: span accounting, exact counts, refusal.

    python3 -m pytest perfbench/test_perfbench.py

The count test runs each workload's traced worker twice at one seed
(about two minutes on two cores).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402
from worker import EXACT  # noqa: E402

WORKLOADS = ("ensemble-bernoulli", "subordinacy", "density-sweep")


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 5.0, 0, 1],    # overlaps a: covered part is [1, 5]
        ["c", 2.0, 3.0, 1, 1],
        ["d", 7.0, 8.0, 0, 1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])


def _trace_counts(workload: str, tmp_path: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    workdir = tmp_path / f"w{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "trace", workload,
                           "20240601", str(workdir), "1"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(res["gates"].values()) and res["deterministic"], res["gates"]
    return {k: res["metrics"][k] for k in EXACT + ("engine.shell_steps",)} | {
        "attempted": res["attempted"], "failed": res["failed"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_runs(workload, tmp_path):
    first = _trace_counts(workload, tmp_path)
    assert first == _trace_counts(workload, tmp_path)
    assert first["engine.shell_steps"] > 0


def test_refuses_without_package_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "subordinacy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
