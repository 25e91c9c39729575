"""In-memory spans around calls into each antitree module.

The package is not edited: ``Tracer.install`` replaces functions in the
namespace where their caller looks them up (``from ... import`` binds a copy
into the importing module, so e.g. ``sample`` is wrapped as
``antitree.engine.sample``, not ``antitree.potentials.sample``).  Each call
records a span ``[name, start, end, parent, run]``; ``run`` numbers the
benchmark repetition.  Spans stay in memory until ``write`` dumps them.

Under a process pool only parent-side spans survive: forked workers run the
same wrappers but record into their own copy of the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

ROOT = "bench.workload"

# span name -> layer; a layer's self time is the sum of its spans' self times
LAYERS = {
    "streams.seed_stream": "streams",
    "potentials.sample": "potentials",
    "potentials.effective_quantities": "potentials",
    "engine.shell_stats": "engine_sampling",
    "engine.multinomial": "engine_sampling",
    "engine.forward_pass": "engine_recursion",
    "engine.subordinacy": "engine_recursion",
    "engine.density_window": "engine_recursion",
    "engine.rescale": "engine_recursion",
    "engine.gram_update": "engine_recursion",
    "engine.checkpoint_sum_inv": "engine_recursion",
    "geometry.sizes_block": "geometry",
    "harness.run_experiment": "harness",
    "harness.build_tasks": "harness",
    "harness.execute_task": "harness",
    "harness.reduce": "harness",
    "harness.atomic_write": "harness",
    "harness.pool": "harness",
}

COUNTERS = ("potentials.sample.values", "engine.shell_draws", "harness.tasks",
            "harness.atomic_write.bytes", "harness.manifest_bytes")

# (module, attribute, span name): the lookup site each caller uses
PATCH_POINTS = (
    ("antitree.engine", "seed_stream", "streams.seed_stream"),
    ("antitree.engine", "sample", "potentials.sample"),
    ("antitree.engine", "effective_quantities", "potentials.effective_quantities"),
    ("antitree.engine", "_shell_stats_block", "engine.shell_stats"),
    ("antitree.engine", "_multinomial_counts", "engine.multinomial"),
    ("antitree.engine", "_forward_polar_pass", "engine.forward_pass"),
    ("antitree.engine", "subordinacy_batch", "engine.subordinacy"),
    ("antitree.engine", "_checkpoint_sum_inv", "engine.checkpoint_sum_inv"),
    ("antitree.engine", "_chol_rank1_update", "engine.gram_update"),
    ("antitree.engine", "_rescale_where", "engine.rescale"),
    ("antitree.harness", "dirichlet_window_average", "engine.density_window"),
    ("antitree.cli", "run_experiment", "harness.run_experiment"),
    ("antitree.harness", "build_tasks", "harness.build_tasks"),
    ("antitree.harness", "_execute_task", "harness.execute_task"),
    ("antitree.harness", "_reduce", "harness.reduce"),
    ("antitree.harness", "atomic_write", "harness.atomic_write"),
)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], start), min(spans[j][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus the exact work counters measured at the same sites."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stream_keys: dict[int, tuple] = {}
        self._sampled_keys: dict[int, set] = defaultdict(set)
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.run]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.run][key] += value

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(args, out)
            return out
        return traced

    # -- counters attached to particular call sites -------------------------

    def _after_seed_stream(self, args, gen):
        self._stream_keys[id(gen)] = tuple(int(a) for a in args)

    def _after_sample(self, args, out):
        self.count("potentials.sample.values", getattr(out, "size", 1))

    def _after_shell_stats(self, args, out):
        sizes, gen = args[3], args[4]
        self.count("engine.shell_draws", len(sizes))
        # a stream the caller made itself has no key: count it as its own
        self._sampled_keys[self.run].add(self._stream_keys.get(id(gen), ("caller", id(gen))))

    def _after_build_tasks(self, args, tasks):
        self.count("harness.tasks", len(tasks))

    def _after_atomic_write(self, args, out):
        path, data = args[0], args[1]
        # the manifest embeds the wall time, so only data files count exactly
        key = "harness.manifest_bytes" if path.name == "manifest.json" else "harness.atomic_write.bytes"
        self.count(key, len(data))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from antitree.geometry import GrowthLaw

        after = {
            "streams.seed_stream": self._after_seed_stream,
            "potentials.sample": self._after_sample,
            "engine.shell_stats": self._after_shell_stats,
            "harness.build_tasks": self._after_build_tasks,
            "harness.atomic_write": self._after_atomic_write,
        }
        for mod_name, attr, name in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, after.get(name)))
        self._patch(GrowthLaw, "sizes_block",
                    self._wrap(GrowthLaw.sizes_block, "geometry.sizes_block"))

        harness = importlib.import_module("antitree.harness")
        tracer = self

        class TracedPool(harness.ProcessPoolExecutor):
            """Parent-side span from pool creation to shutdown: the wait."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("harness.pool")
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        self._patch(harness, "ProcessPoolExecutor", TracedPool)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as one repetition under a fresh root span."""
        self.run += 1
        rec = self.open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    # -- summaries ------------------------------------------------------------

    def summary(self, run: int) -> dict[str, float]:
        """Inclusive time, self time and call count per span name for one run,
        per-layer self times, and the counters taken in that run."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == run]
        sub = [self.spans[i] for i in idx]
        remap = {old: new for new, old in enumerate(idx)}
        local = [[n, a, b, remap.get(p, -1), r] for n, a, b, p, r in sub]
        selfs = self_times(local)
        out: dict[str, float] = defaultdict(float)
        # layers that a workload never enters report zero work
        for name, layer in LAYERS.items():
            for key in (f"{name}.calls", f"{name}.s", f"{name}.self_s", f"layer.{layer}.self_s"):
                out[key] = 0.0
        for key in COUNTERS:
            out[key] = 0.0
        for (name, start, end, _, _), st in zip(local, selfs):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += st
            if name == ROOT:
                out["trace.wall_s"] += end - start
                out["trace.remainder_s"] += st
            else:
                out[f"layer.{LAYERS[name]}.self_s"] += st
        out.update(self.counters[run])
        keys = self._sampled_keys[run]
        out["engine.redraw_ratio"] = out["engine.shell_stats.calls"] / len(keys) if keys else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Dump every span as one JSON line after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
