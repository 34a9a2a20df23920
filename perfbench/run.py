"""End-to-end benchmark of the AOS reproduction, run from a repository checkout.

Usage::

    python3 perfbench/run.py --workload sweep5 --seed 7 --seconds 32 --trace 0

Each sample is a fresh interpreter (``measure.py``) that imports ``repro``,
builds the workload's suites on a cold artifact cache and runs the timed
part.  Samples repeat while the next one is expected to end within
``--seconds``; every metric is the median over the samples of this run.

- ``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``sim_kips``,
  ``setup_s``, ``peak_rss_mb`` and ``ok_ratio`` (1 - ``fail_ratio``).
- ``--trace 1`` alternates untraced and traced samples and prints the
  per-layer metrics from the traced ones, with ``trace.overhead``.

Every sample's per-cell statistics are digested and must agree with each
other and, for the seeds recorded in ``expected.json``, with the recorded
digests.  A cell that is missing, quarantined, raised or disagrees counts
as failed.  ``--record`` stores this run's digests for ``--seed`` in
``expected.json`` (use it only when a change is meant to alter simulated
results).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

All files the benchmark writes go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from cases import CASES, LADDER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

#: Setup-only samples per run, on top of the setup part of every iteration.
SETUP_SAMPLES = 4
#: A run stops starting samples so that it exits well inside 180 seconds.
HARD_LIMIT_S = 160.0


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Sample:
    traced: bool
    setup_s: Optional[float]
    duration: float
    report: Optional[dict]
    error: Optional[str]

    @property
    def good(self) -> bool:
        return self.report is not None and "wall_s" in self.report


def child_env(sample_dir: str) -> Dict[str, str]:
    """A hermetic environment: no inherited ``REPRO_*`` switches, bytecode
    cached across samples as a normal install would, and every other cache
    or temporary file under this sample's directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(
        PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
        TMPDIR=os.path.join(sample_dir, "tmp"),
        REPRO_CACHE_DIR=os.path.join(sample_dir, "default-cache"),
        REPRO_CKERNEL_DIR=os.path.join(sample_dir, "ckernels"),
    )
    return env


def spawn(args, run_dir: str, index: int, traced: bool, setup_only: bool,
          deadline: float) -> Sample:
    """Run one ``measure.py`` sample to completion (killed at ``deadline``)."""
    sample_dir = os.path.join(run_dir, f"{index:03d}")
    os.makedirs(os.path.join(sample_dir, "tmp"))
    out = os.path.join(sample_dir, "report.json")
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--work", sample_dir, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    err_path = os.path.join(sample_dir, "stderr.txt")
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(sample_dir), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's session holds its pool workers: stop any leftover.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    duration = time.monotonic() - spawned
    report = None
    if code == 0 and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    if report is None:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        reason = "timed out" if code is None else f"exited with code {code}"
        return Sample(traced, None, duration, None, f"sample {reason}\n{tail}")
    setup_s = report["ready"] - spawned
    return Sample(traced, setup_s, duration, report, report.get("error"))


def collect(args) -> List[Sample]:
    """Setup-only samples, then iterations while the next one is expected
    to end within ``--seconds`` (at least one, and none that would pass
    the hard limit), so a slow host takes fewer samples, not more time."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    samples: List[Sample] = []
    try:
        for _ in range(SETUP_SAMPLES):
            samples.append(spawn(args, run_dir, len(samples), False, True, deadline))
        begin = time.monotonic()
        durations: List[float] = []
        while True:
            traced = bool(args.trace) and len(durations) % 2 == 1
            sample = spawn(args, run_dir, len(samples), traced, False, deadline)
            samples.append(sample)
            durations.append(sample.duration)
            now = time.monotonic()
            estimate = statistics.median(durations)
            if now + 1.2 * estimate > deadline:
                break
            if args.trace and len(durations) < 2:
                continue  # one untraced and one traced sample at least
            if now - begin + estimate > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return samples


def check_outputs(iterations: List[Sample], reference: Optional[dict]):
    """(attempted, failed, reference digests, problems) over all iterations."""
    if reference is None:
        first = next((s for s in iterations if s.good), None)
        reference = dict(first.report["cells"]) if first else {}
    expected_count = next(
        (len(s.report["expected"]) for s in iterations if s.good), len(reference)
    ) or 1
    attempted = failed = 0
    problems: List[str] = []
    for index, sample in enumerate(iterations):
        attempted += expected_count
        if not sample.good:
            failed += expected_count
            problems.append(f"sample {index}: {sample.error}")
            continue
        report = sample.report
        cells = report["cells"]
        bad = set(report["expected"]) - set(cells)
        bad |= set(report["quarantined"]) | set(report["empty_cells"])
        bad |= {key for key in set(cells) | set(reference)
                if cells.get(key) != reference.get(key)}
        if bad:
            problems.append(
                f"sample {index} ({'traced' if sample.traced else 'untraced'}): "
                f"{len(bad)} bad cells, e.g. {sorted(bad)[:3]}"
            )
        failed += min(len(bad), expected_count)
    return attempted, failed, reference, problems


def run_digest(cells: dict) -> str:
    text = json.dumps(sorted(cells.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def median_of(samples: List[Sample], pick) -> float:
    values = [pick(s.report) for s in samples if s.good]
    return statistics.median(values) if values else 0.0


def end_to_end(setups: List[float], untraced: List[Sample], failed: int,
               attempted: int) -> Dict[str, float]:
    return {
        "wall_s": median_of(untraced, lambda r: r["wall_s"]),
        "sim_kips": median_of(untraced, lambda r: r["sim_insts"] / 1e3 / r["wall_s"]),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(traced: List[Sample], untraced: List[Sample]) -> Dict[str, float]:
    good = [s for s in traced if s.good]
    names = good[0].report["layers"] if good else {}
    metrics = {
        name: median_of(good, lambda r, name=name: r["layers"][name])
        for name in names
    }
    metrics.update(
        {
            "cpu.sim_insts": median_of(good, lambda r: r["sim_insts"]),
            "cpu.sim_cycles": median_of(good, lambda r: r["sim_cycles"]),
            "supervise.retries": median_of(good, lambda r: r["retries"]),
            "supervise.quarantined": median_of(good, lambda r: len(r["quarantined"])),
            "supervise.degradation": median_of(good, lambda r: r["degradation"]),
        }
    )
    untraced_wall = median_of(untraced, lambda r: r["wall_s"])
    traced_wall = median_of(good, lambda r: r["wall_s"])
    metrics["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return metrics


def describe(args, iterations, untraced, traced, reference, recorded, problems,
             attempted, failed) -> None:
    """The human-readable part of the output, before the JSON line."""
    walls = ", ".join(f"{s.report['wall_s']:.2f}" for s in untraced if s.good)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced / {len(traced)} traced samples "
          f"(untraced wall s: {walls})")
    good = next((s.report for s in iterations if s.good), {})
    print(f"  host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"cc {'present' if shutil.which('cc') else 'absent'}, "
          f"default kernel {good.get('default_kernel', '?')}")
    if problems:
        check = "FAILED"
    elif recorded is not None:
        check = "every sample matches the digests recorded for this seed"
    else:
        check = "every sample agrees; no digests recorded for this seed"
    print(f"  output check: run digest {run_digest(reference)} ({check})")
    for problem in problems:
        print(f"    {problem.strip()}")
    retries = sum(s.report["retries"] for s in iterations if s.good)
    level = max((s.report["degradation"] for s in iterations if s.good), default=0)
    print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted} cells; "
          f"supervision retries {retries}, final level "
          f"{LADDER[level] if level < len(LADDER) else level})")
    if good.get("geomeans"):
        parts = ", ".join(
            f"{mech} {value:.3f} (paper {good['paper_geomeans'].get(mech, '?')})"
            for mech, value in good["geomeans"].items()
        )
        print("  model geomean normalized time, not validated against hardware: "
              + parts)
    missing = good.get("untraced_targets") or next(
        (s.report.get("untraced_targets") for s in traced if s.good), []
    )
    if missing:
        print(f"  spans skipped (no such function): {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests for --seed in expected.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2

    units = metric_units("per_layer" if args.trace else "end_to_end")
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    recorded = None
    if not args.record:
        recorded = expected["digests"].get(args.workload, {}).get(str(args.seed))
    samples = collect(args)
    iterations = samples[SETUP_SAMPLES:]
    untraced = [s for s in iterations if not s.traced]
    traced = [s for s in iterations if s.traced]
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    attempted, failed, reference, problems = check_outputs(iterations, recorded)
    for index, sample in enumerate(samples[:SETUP_SAMPLES]):
        if sample.report is None:
            problems.append(f"setup sample {index}: {sample.error}")
    correct = not problems and failed == 0 and bool(untraced)

    describe(args, iterations, untraced, traced, reference, recorded, problems,
             attempted, failed)
    if args.trace:
        values = per_layer(traced, untraced)
    else:
        values = end_to_end(setups, untraced, failed, attempted)
    values = {name: values.get(name, 0.0) for name in units}
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    if args.record and correct:
        expected["digests"].setdefault(args.workload, {})[str(args.seed)] = reference
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  recorded {len(reference)} cell digests in {EXPECTED}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
