"""Per-trace lowering state: a shared LoweringPlan and the one-trace memo.

Lowering every mechanism from one shared plan (and the process's one-trace
memo in ``repro.experiments.parallel``) must emit exactly the program and
the pre-warmed HBT that a cold lowering does, and must not keep lowerings
or old traces alive.
"""

import dataclasses
import gc
import weakref
from functools import partial

import pytest

import repro.compiler.passes as passes
import repro.experiments.parallel as parallel
from repro.compiler import LoweringPlan, lower_trace
from repro.core.hbt import HashedBoundsTable
from repro.errors import SimulationError
from repro.experiments.common import RunSettings, scaled_config
from repro.experiments.fig15 import VARIANTS
from repro.experiments.parallel import CellSpec, generate_cell_trace
from repro.isa.encoding import PointerLayout
from repro.mechanisms.registry import REGISTRY

SETTINGS = RunSettings(instructions=6_000, seed=3)
WORKLOADS = ("gcc", "povray")


def timed_mechanisms():
    return sorted(REGISTRY.timed_names())


def aos_variants():
    """(key, mechanism, config): the Fig. 15 AOS configurations."""
    base = scaled_config("aos", SETTINGS.scale)
    return [
        (
            f"aos-{variant}",
            "aos",
            base.with_aos_options(l1b_cache=l1b, bounds_compression=compression),
        )
        for variant, (l1b, compression) in VARIANTS.items()
    ]


def all_cells():
    cells = [(m, m, scaled_config(m, SETTINGS.scale)) for m in timed_mechanisms()]
    return cells + aos_variants()


def hbt_snapshot(hbt):
    if hbt is None:
        return None
    return (
        hbt.pac_bits,
        hbt.ways,
        hbt.compression,
        dataclasses.asdict(hbt.stats),
        [(coord, hbt.peek(*coord)) for coord in hbt.live_slots()],
    )


def snapshot(lowered):
    """Everything a simulation reads from a LoweredWorkload."""
    return (
        lowered.name,
        lowered.mechanism,
        lowered.program.name,
        lowered.program.instructions,
        lowered.pointer_layout,
        lowered.trace_events,
        hbt_snapshot(lowered.hbt),
    )


@pytest.fixture(scope="module")
def traces():
    return {w: generate_cell_trace(SETTINGS, w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def cold(traces):
    """Each lowering alone, on a fresh copy of the trace and no plan."""
    return {
        (w, key): snapshot(
            lower_trace(generate_cell_trace(SETTINGS, w), mechanism, config=config)
        )
        for w in WORKLOADS
        for key, mechanism, config in all_cells()
    }


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(parallel, "_TRACE_MEMO", None)


class TestWarmPlanEqualsCold:
    def test_registry_covers_related_work_lowerings(self):
        names = set(timed_mechanisms())
        for name in ("rest", "mte", "cryptsan", "pacsan", "pactight", "pacstack"):
            assert name in names

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_shared_plan_lowers_every_mechanism_identically(self, traces, cold, order):
        cells = all_cells()
        if order == "reverse":
            cells = cells[::-1]
        for w in WORKLOADS:
            plan = LoweringPlan(traces[w])
            for key, mechanism, config in cells:
                lowered = lower_trace(traces[w], mechanism, config=config, plan=plan)
                assert snapshot(lowered) == cold[(w, key)], (w, key, order)

    def test_pa_aos_before_aos(self, traces, cold):
        w = "gcc"
        plan = LoweringPlan(traces[w])
        for mechanism in ("pa+aos", "aos"):
            config = scaled_config(mechanism, SETTINGS.scale)
            lowered = lower_trace(traces[w], mechanism, config=config, plan=plan)
            assert snapshot(lowered) == cold[(w, mechanism)]

    def test_interleaved_workloads_through_the_memo(self, cold, empty_memo):
        """Alternating workloads evicts the single memo entry every cell."""
        for key, mechanism, config in all_cells():
            for w in WORKLOADS:
                cell = CellSpec(w, mechanism, config=config, key=key)
                trace, plan = parallel._cell_trace(SETTINGS, cell)
                lowered = lower_trace(trace, mechanism, config=config, plan=plan)
                assert snapshot(lowered) == cold[(w, key)], (w, key)

    def test_hbt_geometry_is_part_of_the_prototype_key(self, traces):
        trace = traces["gcc"]
        plan = LoweringPlan(trace)
        base = scaled_config("aos", SETTINGS.scale)
        wide_config = dataclasses.replace(
            base, hbt=dataclasses.replace(base.hbt, initial_ways=2)
        )
        narrow = lower_trace(trace, "aos", config=base, plan=plan)
        wide = lower_trace(trace, "aos", config=wide_config, plan=plan)
        assert wide.hbt_factory is not narrow.hbt_factory
        assert hbt_snapshot(wide.hbt) != hbt_snapshot(narrow.hbt)
        for config, lowered in ((base, narrow), (wide_config, wide)):
            alone = lower_trace(generate_cell_trace(SETTINGS, "gcc"), "aos", config)
            assert hbt_snapshot(lowered.hbt) == hbt_snapshot(alone.hbt)

    def test_plan_is_bound_to_its_trace(self, traces):
        plan = LoweringPlan(traces["povray"])
        with pytest.raises(ValueError):
            lower_trace(traces["gcc"], "baseline", plan=plan)


class TestPrewarmedHBT:
    """The shared factory keeps a table only once the whole preamble is in."""

    LAYOUT = PointerLayout(pac_bits=11)

    def factory(self, objects, max_ways):
        # Every object under PAC 5: one HBT row takes the whole preamble.
        preamble = [(obj, 16) for obj in range(objects)]
        signed = [self.LAYOUT.sign(0x10000 + 16 * obj, 5, 1) for obj in range(objects)]
        empty = partial(HashedBoundsTable, pac_bits=11, max_ways=max_ways)
        return passes._PrewarmedHBT(empty, self.LAYOUT, preamble, signed)

    def test_failed_build_fails_again_instead_of_returning_a_partial_table(self):
        # Two ways hold 16 bounds per row; the 17th needs a third way.
        factory = self.factory(objects=17, max_ways=2)
        for _ in range(2):
            with pytest.raises(SimulationError, match="maximum supported"):
                factory()

    def test_built_table_holds_the_whole_preamble(self):
        factory = self.factory(objects=16, max_ways=2)
        first, second = factory(), factory()
        assert first is not second
        for hbt in (first, second):
            assert hbt.ways == 2
            assert hbt.total_records() == 16


class TestMemoryBounds:
    @pytest.mark.parametrize("mechanism", ["baseline", "aos", "pa+aos"])
    def test_lowered_program_does_not_pin_the_allocator(
        self, traces, monkeypatch, mechanism
    ):
        allocators = []

        class RecordingAllocator(passes.HeapAllocator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                allocators.append(weakref.ref(self))

        monkeypatch.setattr(passes, "HeapAllocator", RecordingAllocator)
        trace = traces["gcc"]
        config = scaled_config(mechanism, SETTINGS.scale)
        lowered = lower_trace(trace, mechanism, config=config, plan=LoweringPlan(trace))
        gc.collect()
        assert len(allocators) == 1
        assert allocators[0]() is None
        # The factory still works once the lowering is gone.
        if lowered.hbt_factory is not None:
            assert lowered.hbt.total_records() >= len(trace.preamble)

    def test_next_trace_evicts_the_previous_plan(self, empty_memo):
        config = scaled_config("aos", SETTINGS.scale)
        trace_a, plan_a = parallel._cell_trace(SETTINGS, CellSpec("gcc", "aos"))
        lower_trace(trace_a, "aos", config=config, plan=plan_a)
        plan_ref, trace_ref = weakref.ref(plan_a), weakref.ref(trace_a)
        del trace_a, plan_a
        trace_b, plan_b = parallel._cell_trace(SETTINGS, CellSpec("povray", "aos"))
        lower_trace(trace_b, "aos", config=config, plan=plan_b)
        gc.collect()
        assert plan_ref() is None
        assert trace_ref() is None
        assert parallel._TRACE_MEMO[2] is plan_b

    @pytest.mark.parametrize("run", ["run_cells", "run_cells_supervised"])
    def test_a_finished_batch_releases_the_memo(self, empty_memo, run):
        cells = [CellSpec("povray", m) for m in ("baseline", "aos")]
        if run == "run_cells":
            results = parallel.run_cells(SETTINGS, cells)
        else:
            from repro.supervise import ExecutionLevel, SupervisorConfig

            # The serial level runs the cells in this process.
            config = SupervisorConfig(start_level=ExecutionLevel.SERIAL)
            results, _ = parallel.run_cells_supervised(SETTINGS, cells, config)
        assert len(results) == 2
        assert parallel._TRACE_MEMO is None

    def test_same_trace_is_generated_once(self, empty_memo, monkeypatch):
        calls = []
        original = parallel.generate_cell_trace

        def counting(settings, workload):
            calls.append(workload)
            return original(settings, workload)

        monkeypatch.setattr(parallel, "generate_cell_trace", counting)
        for mechanism in ("baseline", "aos", "pa+aos"):
            parallel._cell_trace(SETTINGS, CellSpec("povray", mechanism))
        other_seed = dataclasses.replace(SETTINGS, seed=SETTINGS.seed + 1)
        parallel._cell_trace(other_seed, CellSpec("povray", "aos"))
        assert calls == ["povray", "povray"]

    def test_ingested_sweep_imports_the_trace_once(
        self, tmp_path, empty_memo, monkeypatch
    ):
        import repro.traces as traces_pkg
        from repro.experiments import ExperimentSuite
        from repro.traces import export_workload

        path = tmp_path / "gobmk.trace.jsonl"
        export_workload("gobmk", path, instructions=3_000, seed=5, scale=8)
        suite = ExperimentSuite(RunSettings(instructions=3_000, seed=5), cache=None)
        name = suite.ingest_trace(path)
        calls = []
        original = traces_pkg.import_trace

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(traces_pkg, "import_trace", counting)
        mechanisms = ["baseline", "watchdog", "aos", "pa+aos"]
        suite.ensure_cells(CellSpec(name, m) for m in mechanisms)
        assert len(calls) == 1
        assert set(suite.result_payloads()) == {(name, m) for m in mechanisms}
