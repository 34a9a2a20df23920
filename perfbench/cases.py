"""The benchmark's workloads, each driven through the program's public API.

Every workload builds its :class:`~repro.experiments.common.ExperimentSuite`
objects on a cold artifact cache in :meth:`Case.setup` (part of the
``setup_s`` metric) and runs a figure driver or suite prefetch in
:meth:`Job.run` (the timed part, ``wall_s``).  The benchmark seed is the
suite's ``RunSettings.seed``; the program sees only the settings.

README.md gives the reason for each workload and the layers it should
stress.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Per-cell statistics folded into the output digest.  A change meant only
#: to speed up the simulator must leave every one of them identical.
DIGEST_FIELDS = (
    "cycles",
    "instructions",
    "l1_l2_bytes",
    "l2_dram_bytes",
    "bwb_hit_rate",
    "hbt_resizes",
    "validation_faults",
)

SWEEP_PROFILES = ["gcc", "povray", "omnetpp"]
SPEC_PROFILES = ["gcc", "omnetpp"]
SPEC_SEEDS = 4
QUICK_INSTRUCTIONS = 12_000


@dataclass
class Outcome:
    """What one timed run produced, keyed by ``seed/workload/mechanism``."""

    cells: Dict[str, dict]
    expected: List[str]
    geomeans: Dict[str, float] = field(default_factory=dict)
    paper_geomeans: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    quarantined: List[str] = field(default_factory=list)
    degradation: int = 0


@dataclass
class Job:
    """A built workload: its suites exist, nothing is simulated yet.

    ``run`` is the timed part; ``collect`` reads its results afterwards.
    """

    run: Callable[[], None]
    collect: Callable[[], Outcome]


@dataclass(frozen=True)
class Case:
    name: str
    jobs: int
    specialized: bool
    setup: Callable[[int, str], Job]


def _cells(suite, seed: int) -> Dict[str, dict]:
    return {
        f"{seed}/{workload}/{key}": {name: payload[name] for name in DIGEST_FIELDS}
        for (workload, key), payload in suite.result_payloads().items()
    }


#: The supervisor's degradation ladder, most parallel first.
LADDER = ("pool", "fresh-pool", "serial")


def _supervision(outcome: Outcome, suite, seed: int) -> Outcome:
    for report in getattr(suite, "supervision_reports", []):
        outcome.retries += report.retries
        outcome.quarantined.extend(f"{seed}/{key}" for key in report.quarantined)
        level = report.final_level
        rung = LADDER.index(level) if level in LADDER else len(LADDER)
        outcome.degradation = max(outcome.degradation, rung)
    return outcome


def _fig14_job(seed: int, cache_dir: str, workloads, jobs: int, supervise: bool,
               instructions: Optional[int] = None) -> Job:
    from repro.experiments.common import MECHANISMS, ExperimentSuite, RunSettings
    from repro.experiments.fig14 import PAPER_GEOMEAN, run_fig14

    settings = RunSettings(seed=seed)
    if instructions is not None:
        settings = RunSettings(seed=seed, instructions=instructions)
    suite = ExperimentSuite(settings, jobs=jobs, cache=cache_dir, supervise=supervise)

    figure = []

    def run() -> None:
        figure.append(run_fig14(suite, workloads=list(workloads)))

    def collect() -> Outcome:
        outcome = Outcome(
            cells=_cells(suite, seed),
            expected=[f"{seed}/{w}/{m}" for w in workloads for m in MECHANISMS],
            geomeans=dict(figure[0].geomeans),
            paper_geomeans=dict(PAPER_GEOMEAN),
        )
        return _supervision(outcome, suite, seed)

    return Job(run, collect)


def _sweep5(seed: int, cache_dir: str) -> Job:
    return _fig14_job(seed, cache_dir, SWEEP_PROFILES, jobs=1, supervise=False)


def _fig14_2w(seed: int, cache_dir: str, supervise: bool = False) -> Job:
    from repro.experiments.common import SPEC_WORKLOADS

    return _fig14_job(
        seed, cache_dir, SPEC_WORKLOADS, jobs=2, supervise=supervise,
        instructions=QUICK_INSTRUCTIONS,
    )


def _seeds_aos_spec(seed: int, cache_dir: str) -> Job:
    from repro.experiments.common import ExperimentSuite, RunSettings
    from repro.experiments.parallel import CellSpec

    seeds = [seed + offset for offset in range(SPEC_SEEDS)]
    suites = [
        ExperimentSuite(
            RunSettings(seed=s, kernel="specialized"),
            cache=os.path.join(cache_dir, str(s)),
        )
        for s in seeds
    ]

    def run() -> None:
        for suite in suites:
            suite.ensure_cells(CellSpec(w, "aos") for w in SPEC_PROFILES)

    def collect() -> Outcome:
        cells: Dict[str, dict] = {}
        for s, suite in zip(seeds, suites):
            cells.update(_cells(suite, s))
        return Outcome(
            cells=cells,
            expected=[f"{s}/{w}/aos" for s in seeds for w in SPEC_PROFILES],
        )

    return Job(run, collect)


CASES = {
    case.name: case
    for case in [
        Case("sweep5", jobs=1, specialized=False, setup=_sweep5),
        Case("seeds-aos-spec", jobs=1, specialized=True, setup=_seeds_aos_spec),
        Case("fig14-2w", jobs=2, specialized=False, setup=_fig14_2w),
        Case(
            "fig14-2w-sup",
            jobs=2,
            specialized=False,
            setup=lambda seed, cache_dir: _fig14_2w(seed, cache_dir, supervise=True),
        ),
    ]
}
