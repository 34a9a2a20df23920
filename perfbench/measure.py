"""One measured iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample, so every iteration pays
interpreter start, ``import repro`` and suite construction (the
``setup_s`` sample) and starts with a cold artifact cache and an empty
in-process specialization cache.  The report goes to ``--out`` as JSON:

- ``ready``: ``time.monotonic()`` once the suites are built, which the
  parent subtracts from its own clock reading at spawn;
- ``wall_s``: host seconds of the timed part;
- ``cells``: per-cell digest of the simulated statistics, plus the cells
  the workload should have produced;
- ``layers``: per-layer metrics when ``--trace 1``.

Usage: ``python3 perfbench/measure.py --workload sweep5 --seed 7 --trace 0
--work DIR --out FILE [--setup-only]``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cell_digest(stats: dict) -> str:
    text = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cases import CASES

    case = CASES[args.workload]
    job = case.setup(args.seed, os.path.join(args.work, "cache"))
    report = {"ready": time.monotonic()}
    if not args.setup_only:
        report.update(_measure(case, job, args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def _measure(case, job, args) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer

        span_dir = os.path.join(args.work, "spans")
        os.makedirs(span_dir, exist_ok=True)
        tracer = Tracer(span_dir)
        tracer.install()
    start = time.perf_counter()
    try:
        job.run()
    except Exception:  # the benchmark counts the failure and reports it
        return {"error": traceback.format_exc()}
    wall = time.perf_counter() - start
    outcome = job.collect()
    from repro.experiments.common import RunSettings

    report = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "cells": {key: cell_digest(stats) for key, stats in outcome.cells.items()},
        "expected": outcome.expected,
        "sim_insts": sum(stats["instructions"] for stats in outcome.cells.values()),
        "sim_cycles": sum(stats["cycles"] for stats in outcome.cells.values()),
        "empty_cells": sorted(
            key
            for key, stats in outcome.cells.items()
            if stats["instructions"] <= 0 or stats["cycles"] <= 0
        ),
        "geomeans": outcome.geomeans,
        "paper_geomeans": outcome.paper_geomeans,
        "retries": outcome.retries,
        "quarantined": outcome.quarantined,
        "degradation": outcome.degradation,
        "default_kernel": RunSettings().kernel,
    }
    if tracer is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(
            tracer, wall, case.jobs, len(outcome.expected), case.specialized
        )
        report["untraced_targets"] = tracer.missing
    return report


if __name__ == "__main__":
    sys.exit(main())
