"""In-memory span tracer that wraps the program's public layer calls.

The tracer never edits the program on disk.  :meth:`Tracer.install`
replaces each function named in :data:`TARGETS` with a timing wrapper in
every loaded ``repro`` module that holds a reference to it, so
``from x import f`` copies are wrapped too.  A name that no longer exists
is skipped, so a later refactor loses that span instead of crashing the
benchmark.

Each span records its layer, process, start, end and the time its child
spans cover; a layer's self time is its duration minus that.  Spans stay
in memory.  Pool workers are forked from the traced process, so they
inherit the wrappers; a worker appends its spans to ``<span_dir>/<pid>.jsonl``
each time one of its top-level spans closes, because pool workers exit
without running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time
from typing import Dict, List

#: (dotted name of a public callable, layer it belongs to).  A nested call
#: into the same layer is folded into the outer span.
TARGETS = [
    ("repro.experiments.parallel.run_cells", "experiments.fanout"),
    ("repro.experiments.parallel.run_cells_supervised", "experiments.fanout"),
    ("repro.experiments.parallel.simulate_cell", "experiments.cell"),
    ("repro.experiments.parallel.batch_simulate_cells", "experiments.cell"),
    ("repro.experiments.parallel.generate_cell_trace", "workloads.generate"),
    ("repro.workloads.generator.generate_trace", "workloads.generate"),
    ("repro.compiler.passes.lower_trace", "compiler.lower"),
    ("repro.kernel.flatten.flatten_program", "kernel.flatten"),
    ("repro.cpu.core.Simulator.run", "kernel.run"),
    ("repro.experiments.parallel.ArtifactCache.get_result", "experiments.cache_get"),
    ("repro.experiments.parallel.ArtifactCache.get_trace", "experiments.cache_get"),
    ("repro.experiments.parallel.ArtifactCache.put_result", "experiments.cache_put"),
    ("repro.experiments.parallel.ArtifactCache.put_trace", "experiments.cache_put"),
]

#: Counters of the specialized kernel, read as deltas around spans.
KERNEL_STATS = ("trainings", "runs", "guard_aborts", "c_runs")


def _resolve(dotted: str):
    """(owner object, attribute name, current value) or None if gone."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


def _kernel_stats() -> Dict[str, int]:
    module = sys.modules.get("repro.kernel.specialize")
    stats = getattr(module, "STATS", None)
    return {name: getattr(stats, name, 0) for name in KERNEL_STATS}


def _delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _kernel_stats()
    return {name: after[name] - before[name] for name in KERNEL_STATS}


class Tracer:
    """Records spans around the wrapped calls of this process and its forks."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[dict] = []
        self.missing: List[str] = []
        self._local = threading.local()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for dotted, layer in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, name, original = found
            wrapper = self._wrap(original, layer)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            else:
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        return wrapper

    # -------------------------------------------------------------- spans

    def _stack(self) -> list:
        if os.getpid() != self.pid:
            # A forked worker: drop the parent's open spans and records.
            self.pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        if stack and stack[-1]["layer"] == layer:
            return fn(*args, **kwargs)
        span = {"layer": layer, "pid": self.pid, "depth": len(stack), "child": 0.0}
        watch = not stack or layer == "kernel.run"
        before = _kernel_stats() if watch else None
        stack.append(span)
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            stack.pop()
            duration = span["t1"] - span["t0"]
            if stack:
                stack[-1]["child"] += duration
            if before is not None:
                span["stats"] = _delta(before)
        self._annotate(span, args, kwargs, result)
        self.spans.append(span)
        if not stack and self.pid != self.main_pid:
            self._flush()
        return result

    @staticmethod
    def _annotate(span: dict, args, kwargs, result) -> None:
        layer = span["layer"]
        if layer == "workloads.generate":
            text = repr((args, sorted(kwargs.items())))
            span["key"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        elif layer == "compiler.lower":
            program = getattr(result, "program", None)
            span["insts"] = len(program) if program is not None else 0
        elif layer == "experiments.cache_get":
            span["hit"] = result is not None

    def _flush(self) -> None:
        lines = "".join(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []
        path = os.path.join(self.span_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)

    def worker_spans(self) -> List[dict]:
        spans: List[dict] = []
        for name in sorted(os.listdir(self.span_dir)):
            if not name.endswith(".jsonl"):
                continue
            with open(os.path.join(self.span_dir, name), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def layer_metrics(
    tracer: Tracer, wall_s: float, jobs: int, cells: int, specialized: bool
) -> Dict[str, float]:
    """Per-layer metrics of one traced run, from its spans.

    ``*_s`` values are self times summed over every process, so on a pool
    workload they add up worker time and can exceed the wall time.  Cell
    time that no inner span covers is kernel time (the batch driver's
    lockstep loop, for instance, runs outside ``Simulator.run``).
    """
    main = tracer.spans
    spans = main + tracer.worker_spans()
    seconds = {
        "workloads.generate_s": 0.0,
        "compiler.lower_s": 0.0,
        "kernel.flatten_s": 0.0,
        "kernel.run_s": 0.0,
        "kernel.train_s": 0.0,
        "experiments.cache_get_s": 0.0,
        "experiments.cache_put_s": 0.0,
    }
    stats = dict.fromkeys(KERNEL_STATS, 0)
    keys = set()
    generations = lower_calls = insts = puts = hits = misses = 0
    fanout = busy = 0.0
    for span in spans:
        layer = span["layer"]
        duration = span["t1"] - span["t0"]
        own = duration - span["child"]
        if span["depth"] == 0:
            for name, value in span.get("stats", {}).items():
                stats[name] += value
        if layer == "kernel.run":
            trained = span.get("stats", {}).get("trainings", 0) > 0
            seconds["kernel.train_s" if trained else "kernel.run_s"] += own
        elif layer == "experiments.cell":
            seconds["kernel.run_s"] += own
            busy += duration
        elif layer == "experiments.fanout":
            fanout += duration
        elif layer == "workloads.generate":
            seconds["workloads.generate_s"] += own
            generations += 1
            keys.add(span["key"])
        elif layer == "compiler.lower":
            seconds["compiler.lower_s"] += own
            lower_calls += 1
            insts += span["insts"]
        elif layer == "kernel.flatten":
            seconds["kernel.flatten_s"] += own
        elif layer == "experiments.cache_get":
            seconds["experiments.cache_get_s"] += own
            hits += span["hit"]
            misses += not span["hit"]
        elif layer == "experiments.cache_put":
            seconds["experiments.cache_put_s"] += own
            puts += 1
    covered = sum(span["t1"] - span["t0"] - span["child"] for span in main)
    spec_cells = cells if specialized else 0
    spec_hits = max(0, stats["runs"] - stats["guard_aborts"])
    metrics = dict(seconds)
    metrics.update(
        {
            "workloads.generate_calls": generations,
            "workloads.reuse_ratio": len(keys) / generations if generations else 0.0,
            "compiler.lower_calls": lower_calls,
            "compiler.insts_emitted": insts,
            "kernel.trainings": stats["trainings"],
            "kernel.spec_runs": stats["runs"],
            "kernel.guard_aborts": stats["guard_aborts"],
            "kernel.c_runs": stats["c_runs"],
            "kernel.spec_hit_ratio": spec_hits / spec_cells if spec_cells else 0.0,
            "experiments.cache_puts": puts,
            "experiments.cache_hits": hits,
            "experiments.cache_misses": misses,
            "experiments.fanout_s": fanout,
            "experiments.worker_busy_s": busy,
            "experiments.worker_util": busy / (jobs * fanout) if fanout else 0.0,
            "trace.coverage": covered / wall_s if wall_s else 0.0,
        }
    )
    return metrics
