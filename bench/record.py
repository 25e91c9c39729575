"""Append one benchmark run of a workload to BENCH_<workload>.json.

    python3 bench/record.py --workload density-sweep --seed 1 --seconds 30
    python3 bench/record.py --workload density-sweep --checkout ../parent

Runs ``perfbench/run.py`` of a checkout (the repository root by default) as
it is, once with ``--trace 0`` for the end-to-end metrics and once with
``--trace 1`` for the per-layer ones, from that checkout's root.  The
``env`` and ``check`` lines and the closing result line of each run become
one entry, tagged with the checkout's git revision, which is appended to
``BENCH_<workload>.json`` in the repository that holds this script.  A
sequence of entries over revisions is the workload's perf trajectory; compare
entries only when their ``env`` (CPU, library versions) agrees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIXES = ("env", "check")


def git(checkout: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=checkout, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def parse_run(stdout: str) -> dict:
    """The ``env`` and ``check`` objects and the result object of one run."""
    out = {}
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        prefix, _, rest = line.partition(" ")
        if prefix in PREFIXES:
            out[prefix] = json.loads(rest)
    missing = [p for p in PREFIXES if p not in out]
    if not lines or missing:
        raise ValueError(f"run printed no {missing or 'result'} line")
    out["result"] = json.loads(lines[-1])
    return out


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, text=True, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return parse_run(proc.stdout)


def entry(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    runs = {trace: run_bench(checkout, workload, seed, seconds, trace) for trace in (0, 1)}
    return {
        "revision": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "env": runs[0]["env"],
        "correct": runs[0]["result"]["correct"] and runs[1]["result"]["correct"],
        "attempted": runs[0]["result"]["attempted"],
        "failed": runs[0]["result"]["failed"],
        "check": runs[0]["check"],
        "end_to_end": {k: v["value"] for k, v in runs[0]["result"]["metrics"].items()},
        "per_layer": {k: v["value"] for k, v in runs[1]["result"]["metrics"].items()},
    }


def append(path: Path, item: dict) -> None:
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(item)
    tmp = path.with_name(path.name + ".tmp~")
    tmp.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout whose perfbench/run.py and src/ are measured")
    args = parser.parse_args(argv)
    try:
        item = entry(args.checkout.resolve(), args.workload, args.seed, args.seconds)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 2
    path = ROOT / f"BENCH_{args.workload}.json"
    append(path, item)
    e2e = ", ".join(f"{k}={v:.4g}" for k, v in item["end_to_end"].items())
    print(f"{path.name}: {item['revision'][:10]} {e2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
