"""One workload process, started by run.py with BLAS pinned to one thread.

    python3 perfbench/worker.py setup   <workload> <master_seed> <workdir>
    python3 perfbench/worker.py measure <workload> <master_seed> <workdir> <seconds>
    python3 perfbench/worker.py trace   <workload> <master_seed> <workdir> <seconds>

``setup`` prints ``ready`` at the first engine call, then the reference
kernel's time, and exits; the parent times ``ready`` from process start.  ``measure`` runs one untimed call (the output
the gates judge), then repeats the call for ``seconds`` and prints the wall
times, each also divided by the reference kernel's time around it (see
reference.py).  ``trace`` times untraced calls for half the budget and
traced calls for the other half, and prints per-layer metrics.  Both print
one JSON object as their last stdout line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, PairedReference, reference_kernel

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
# counts that must repeat exactly between repetitions (and between runs)
EXACT = ("streams.seed_stream.calls", "potentials.sample.calls", "potentials.sample.values",
         "engine.shell_stats.calls", "engine.shell_draws", "engine.redraw_ratio",
         "engine.rescale.calls", "engine.gram_update.calls", "geometry.sizes_block.calls",
         "harness.tasks", "harness.atomic_write.bytes")


class FirstEngineCall(Exception):
    pass


def env_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def repeat(call, seconds: float, min_reps: int, reference=reference_kernel):
    """Call until ``seconds`` have passed and at least ``min_reps`` ran.

    The reference kernel runs before the first call and after every call;
    each call's relative time is its wall time over the mean of the two
    kernel times around it.  Returns (walls, relative times, outputs).
    """
    walls, rel, outs = [], [], []
    before = reference()
    deadline = perf_counter() + seconds
    while len(walls) < min_reps or perf_counter() < deadline:
        t0 = perf_counter()
        outs.append(call())
        walls.append(perf_counter() - t0)
        after = reference()
        rel.append(2.0 * walls[-1] / (before + after))
        before = after
    return walls, rel, outs


def setup(wl_cls, seed: int, workdir: Path) -> None:
    wl = wl_cls(seed, workdir)
    if wl.name == "density-sweep":
        # inside cli.main the first engine call is the first task executed
        import antitree.harness

        def stop(task):
            raise FirstEngineCall

        antitree.harness._execute_task = stop
        try:
            wl.call(threads=1)
        except FirstEngineCall:
            pass
        else:
            raise SystemExit("setup probe never reached the engine")
    print("ready", flush=True)
    # the kernel's time right after set-up normalises it like a call
    print(reference_kernel(), flush=True)


def judge(wl, outs) -> tuple:
    """Check the first output and require every other one to match it."""
    first = wl.check(outs[0])
    same = all(wl.check(o).digest == first.digest for o in outs[1:])
    return first, same


def measure(wl_cls, seed: int, workdir: Path, seconds: float) -> dict:
    wl = wl_cls(seed, workdir)
    outs = []
    if wl.name == "density-sweep":
        outs.append(wl.call(threads=1))
        wl.set_reference(outs[0])
    outs.append(wl.call())
    if wl.name == "density-sweep":
        # the pool keeps both cores busy: bracket with the kernel on both
        with PairedReference() as reference:
            walls, rel, timed = repeat(wl.call, seconds, MIN_REPS, reference)
    else:
        walls, rel, timed = repeat(wl.call, seconds, MIN_REPS)
    first, same = judge(wl, outs + timed)
    return {
        # seconds of a machine on which the reference kernel takes NOMINAL_S
        "wall_s": NOMINAL_S * statistics.median(rel),
        "walls": walls,
        "relative": rel,
        "shell_steps": wl.shell_steps,
        "attempted": first.attempted,
        "failed": first.failed,
        "gates": first.gates,
        "deterministic": same,
        "notes": first.notes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl_cls, seed: int, workdir: Path, seconds: float) -> dict:
    from tracer import Tracer

    wl = wl_cls(seed, workdir)
    density = wl.name == "density-sweep"
    # layer splits come from serial calls: pool workers' spans are lost
    serial = (lambda: wl.call(threads=1)) if density else wl.call
    outs = [serial()]
    if density:
        wl.set_reference(outs[0])
    share = seconds / (3.0 if density else 2.0)
    untraced_walls, untraced, more = repeat(serial, share, 2)
    outs += more
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, more = repeat(lambda: tracer.call(serial), share, 2)
        outs += more
        traced_runs = list(range(1, tracer.run + 1))
        pooled_runs = []
        if density:
            _, _, more = repeat(lambda: tracer.call(wl.call), share, 2)
            outs += more
            pooled_runs = list(range(traced_runs[-1] + 1, tracer.run + 1))
    finally:
        tracer.uninstall()
    first, same = judge(wl, outs)

    sums = [tracer.summary(r) for r in traced_runs]
    counts_repeat = all(s.get(k, 0.0) == sums[0].get(k, 0.0) for s in sums for k in EXACT)
    accounted = all(abs(sum(v for k, v in s.items() if k.startswith("layer."))
                        + s["trace.remainder_s"] - s["trace.wall_s"]) <= 1e-9 * s["trace.wall_s"]
                    for s in sums)

    def med(key):
        return statistics.median(s.get(key, 0.0) for s in sums)

    metrics = {k: med(k) for k in set().union(*sums)}
    for k in EXACT:
        metrics[k] = sums[0].get(k, 0.0)
    metrics["engine.shell_steps"] = wl.shell_steps
    metrics["engine.ns_per_shell_step"] = 1e9 * metrics.get("layer.engine_recursion.self_s", 0.0) / wl.shell_steps
    metrics["engine.nonfinite_checkpoints"] = sum(
        n for n in first.notes.get("nonfinite_checkpoints_per_cell", []) if isinstance(n, int))
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if pooled_runs:
        pool = statistics.median(tracer.summary(r).get("harness.pool.s", 0.0) for r in pooled_runs)
        metrics["harness.pool_wait_s"] = pool
        metrics["harness.serial_over_parallel"] = metrics["harness.execute_task.s"] / pool
    else:
        metrics["harness.pool_wait_s"] = 0.0
        metrics["harness.serial_over_parallel"] = 0.0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}.jsonl",
                 {"workload": wl.name, "seed": seed, "env": env_info(),
                  "traced_runs": traced_runs, "pooled_runs": pooled_runs,
                  "columns": ["name", "start", "end", "parent", "run"]})
    return {
        "metrics": metrics,
        "attempted": first.attempted,
        "failed": first.failed,
        "gates": dict(first.gates, counts_repeat=counts_repeat, self_times_account=accounted),
        "deterministic": same,
        "notes": first.notes,
    }


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    wl_cls = WORKLOADS[name]
    if mode == "setup":
        setup(wl_cls, seed, workdir)
        return 0
    seconds = float(argv[4])
    result = (measure if mode == "measure" else trace)(wl_cls, seed, workdir, seconds)
    result["env"] = env_info()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
