"""antitree benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload ensemble-bernoulli --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  ``--trace 0`` prints
the end-to-end metrics (wall_s, shell_steps_per_s, setup_s, peak_rss_mib,
ok_frac); ``--trace 1`` prints the per-layer metrics of a traced run.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it record the environment and the
gate results.

This process imports neither numpy nor antitree.  It derives the master seed
from ``--seed``, pins BLAS to one thread, starts ``setup_s`` probes (fresh
interpreters stopped at their first engine call) and one worker process that
runs the workload, waits for every one of them, and reports.  Everything it
writes stays under perfbench/.work (removed afterwards) and perfbench/out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def master_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"antitree-perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def setup_seconds(env, workload: str, seed: int, workdir: Path) -> tuple[float, list]:
    """Time from spawning a fresh interpreter to its first engine call.

    Returns the median over the probes of that time normalised by the
    reference kernel run in the probe right after it, and the raw times.
    """
    times, rel = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(worker_cmd("setup", workload, seed, workdir), env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if line.strip() != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError(f"setup probe exited with {code}")
        rel.append(times[-1] / float(rest[0]))
    return NOMINAL_S * statistics.median(rel), times


def run_worker(env, mode: str, workload: str, seed: int, workdir: Path, seconds: int) -> dict:
    proc = subprocess.run(worker_cmd(mode, workload, seed, workdir, seconds), env=env,
                          stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "antitree" / "__init__.py").is_file():
        return fail(f"no antitree sources under {src}; run from the repository root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    seed = master_seed(args.workload, args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = run_worker(env, "trace", args.workload, seed, workdir, args.seconds)
            values = res["metrics"]
            declared = spec["per_layer"]
        else:
            setup_s, setup_raw = setup_seconds(env, args.workload, seed, workdir)
            res = run_worker(env, "measure", args.workload, seed, workdir, args.seconds)
            wall = res["wall_s"]
            values = {"wall_s": wall, "shell_steps_per_s": res["shell_steps"] / wall,
                      "setup_s": setup_s, "peak_rss_mib": res["peak_rss_mib"],
                      "ok_frac": 1.0 - res["failed"] / res["attempted"]}
            declared = spec["end_to_end"]
            res["notes"].update(raw_wall_s=statistics.median(res["walls"]),
                                walls=res["walls"], relative=res["relative"],
                                raw_setup_s=statistics.median(setup_raw))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"worker did not report {missing}")
    correct = all(res["gates"].values()) and res["deterministic"]
    print("env " + json.dumps(res["env"], sort_keys=True))
    print("check " + json.dumps({"gates": res["gates"], "deterministic": res["deterministic"],
                                 "master_seed": seed, "notes": res["notes"]}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
