"""Mechanism-specific lowering of workload traces to instruction streams.

Each lowering executes the trace's allocation sequence against a real
:class:`~repro.memory.allocator.HeapAllocator` (so every mechanism sees the
identical, deterministic address stream) and emits the instrumentation that
mechanism requires.  The AOS lowerings also sign pointers and pre-populate
the HBT with the preamble live set — the objects that were already
allocated when the measured window begins.

The work that depends only on the trace — the dependency draws, the signed
preamble and the preamble-warmed HBT — lives in a :class:`LoweringPlan`,
which every lowering of one trace can share (see DESIGN.md §4).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..config import SystemConfig, default_config
from ..crypto.pac import PACGenerator, PAKeys
from ..errors import SimulationError, WorkloadError
from ..isa.encoding import PointerLayout
from ..isa.instructions import Op
from ..isa.program import Program, ProgramBuilder
from ..memory.allocator import HeapAllocator
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.memory import SparseMemory
from ..memory.shadow import ShadowMemory
from ..core.hbt import HashedBoundsTable
from ..core.signing import PointerSigner
from ..workloads.generator import WorkloadTrace

#: Maximum dependency distance the pipeline's completion ring supports.
MAX_DEP_DISTANCE = 480

#: Trace events that take one dependency draw each.
_DRAWING_EVENTS = frozenset({"alu", "falu", "ld", "st", "uld", "ust"})

_T = TypeVar("_T")


def _draw_deps(trace: WorkloadTrace) -> List[int]:
    """The dependency distance of every event of ``trace`` (0 for none).

    ALU, FALU, load and store events take one draw each from a stream
    seeded by the trace alone; other events take none.  The draws are the
    same for every mechanism, so a :class:`LoweringPlan` makes them once
    per trace.
    """
    rng = random.Random(trace.seed ^ 0x5EED)
    draw, randrange = rng.random, rng.randrange
    dep_prob = trace.profile.dep_prob
    ilp_distance = trace.profile.ilp_distance
    return [
        1 + randrange(ilp_distance)
        if event[0] in _DRAWING_EVENTS and draw() < dep_prob
        else 0
        for event in trace.events
    ]


class LoweringPlan:
    """The lowering work that depends only on the trace, done once.

    Every mechanism lowers one trace with the same dependency draws and,
    on a fresh allocator, the same preamble addresses, so lowerings of one
    trace can share:

    - the dependency draw of every event (:meth:`dep_draws`);
    - the signed preamble and the preamble-warmed HBT prototype, each
      under a key that names every input it depends on (:meth:`shared`).

    Lowerings read a plan and never change what it holds, so a lowering
    served from a warm plan emits exactly what one with a fresh plan
    does.  The allocator is not shared: each lowering replays the preamble
    into a private :class:`HeapAllocator`, because the window's mallocs
    and frees (REST's quarantine, MTE's and CryptSan's ``allocated_size``)
    mutate it.  A plan holds its trace and is only valid for it.
    """

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self._deps: Optional[List[int]] = None
        self._shared: Dict[Hashable, object] = {}

    def dep_draws(self) -> List[int]:
        """The dependency distance of every event (see :func:`_draw_deps`)."""
        if self._deps is None:
            self._deps = _draw_deps(self.trace)
        return self._deps

    def shared(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The value for ``key``, built by the first lowering that asks."""
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]  # type: ignore[return-value]


@dataclass
class LoweredWorkload:
    """A lowered trace plus the state the simulator needs to run it."""

    name: str
    mechanism: str
    program: Program
    pointer_layout: Optional[PointerLayout] = None
    #: Builds a *fresh* pre-warmed HBT; called once per simulation run so
    #: repeated runs (pytest-benchmark rounds) don't accumulate state.
    #: It holds the shared prototype only, never the lowering.
    hbt_factory: Optional[Callable[[], HashedBoundsTable]] = None
    #: Dynamic-instruction count of the unprotected lowering, for
    #: instruction-overhead reporting (§I's "44 % more dynamic instructions").
    trace_events: int = 0

    @property
    def hbt(self) -> Optional[HashedBoundsTable]:
        """A fresh pre-warmed HBT (None for non-AOS mechanisms)."""
        if self.hbt_factory is None:
            return None
        return self.hbt_factory()


class _LoweringBase:
    """Shared machinery: allocator execution, addresses, the event loop.

    ``plan`` is the trace's :class:`LoweringPlan`; a lowering without one
    makes its own, which is what a cold lowering does.
    """

    mechanism = "baseline"

    def __init__(
        self,
        trace: WorkloadTrace,
        config: Optional[SystemConfig] = None,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        plan: Optional[LoweringPlan] = None,
    ) -> None:
        if plan is not None and plan.trace is not trace:
            raise ValueError("a LoweringPlan lowers only the trace it was made for")
        self.trace = trace
        self.plan = plan if plan is not None else LoweringPlan(trace)
        self.config = config or default_config(self.mechanism)
        self.address_layout = address_layout
        self.memory = SparseMemory()
        self.allocator = HeapAllocator(self.memory, address_layout)
        self.builder = ProgramBuilder(name=f"{trace.name}:{self.mechanism}")
        #: obj id -> pointer handed to the program (signed under AOS).
        self.pointers: Dict[int, int] = {}
        self._last_load_index: Optional[int] = None
        self._stack_hot = address_layout.stack_top - 0x2000

    # ---------------------------------------------------------------- hooks

    def setup_preamble(self) -> None:
        """Allocate the preamble live set (untimed warm state)."""
        preamble = self.trace.preamble
        raws = self.allocator.malloc_many([size for _, size in preamble])
        self.pointers.update(zip((obj for obj, _ in preamble), raws))

    def lower_malloc(self, obj: int, size: int) -> None:
        self._emit_allocator_work(size)
        self.pointers[obj] = self.allocator.malloc(size)

    def lower_free(self, obj: int) -> None:
        self._emit_allocator_work(0)
        self.allocator.free(self.pointers[obj])

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address, chase, dep)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self._emit_store(address, dep)

    def lower_call(self) -> None:
        self.builder.emit_op(Op.CALL)

    def lower_ret(self) -> None:
        self.builder.emit_op(Op.RET)

    def lower_ptr_arith(self) -> None:
        self.builder.emit_op(Op.ALU)

    # ------------------------------------------------------------ utilities

    def heap_address(self, obj: int, offset: int) -> int:
        return self.pointers[obj] + offset

    def _emit_allocator_work(self, size: int) -> None:
        """The allocator's own footprint: bin search + header update."""
        self.builder.emit_op(Op.ALU)
        self.builder.emit_op(Op.ALU)
        meta = self.address_layout.heap_base + (size % 4096)
        self.builder.emit_op(Op.LOAD, address=meta)
        self.builder.emit_op(Op.STORE, address=meta)

    def _dep_tuple(self, dep: int, extra: Optional[int] = None):
        deps = []
        if dep:
            deps.append(min(dep, MAX_DEP_DISTANCE))
        if extra:
            deps.append(min(extra, MAX_DEP_DISTANCE))
        return tuple(deps)

    def _emit_load(self, address: int, chase: bool, dep: int) -> None:
        extra = None
        if chase and self._last_load_index is not None:
            distance = len(self.builder) - self._last_load_index
            if 0 < distance <= MAX_DEP_DISTANCE:
                extra = distance
        self.builder.emit_op(Op.LOAD, address=address, deps=self._dep_tuple(dep, extra))
        self._last_load_index = len(self.builder) - 1

    def _emit_store(self, address: int, dep: int) -> None:
        self.builder.emit_op(Op.STORE, address=address, deps=self._dep_tuple(dep))

    def _unsigned_address(self, kind: int, offset: int) -> int:
        if kind == 0:
            return self._stack_hot + offset
        return self.address_layout.globals_base + offset

    # ------------------------------------------------------------- pipeline

    def lower(self) -> LoweredWorkload:
        self.setup_preamble()
        for event, dep in zip(self.trace.events, self.plan.dep_draws()):
            tag = event[0]
            if tag == "alu":
                self.builder.emit_op(Op.ALU, deps=self._dep_tuple(dep))
            elif tag == "falu":
                self.builder.emit_op(Op.FALU, deps=self._dep_tuple(dep))
            elif tag == "ld":
                _, obj, offset, is_ptr, chase = event
                self.lower_heap_load(obj, self.heap_address(obj, offset), is_ptr, chase, dep)
            elif tag == "st":
                _, obj, offset, is_ptr = event
                self.lower_heap_store(obj, self.heap_address(obj, offset), is_ptr, dep)
            elif tag == "uld":
                _, kind, offset = event
                self._emit_load(self._unsigned_address(kind, offset), False, dep)
            elif tag == "ust":
                _, kind, offset = event
                self._emit_store(self._unsigned_address(kind, offset), dep)
            elif tag == "br":
                self.builder.emit_op(Op.BRANCH, mispredicted=event[1])
            elif tag == "m":
                _, obj, size = event
                self.lower_malloc(obj, size)
            elif tag == "f":
                self.lower_free(event[1])
            elif tag == "call":
                self.lower_call()
            elif tag == "ret":
                self.lower_ret()
            elif tag == "pa":
                self.lower_ptr_arith()
            else:
                raise WorkloadError(f"unknown trace event {tag!r}")
        return self._finish()

    def _finish(self) -> LoweredWorkload:
        return LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=self.builder.build(),
            trace_events=len(self.trace.events),
        )


class BaselineLowering(_LoweringBase):
    """No security features: the normalisation denominator of Figs. 14/18."""

    mechanism = "baseline"


class WatchdogLowering(_LoweringBase):
    """Watchdog (Fig. 5a): check µops before every access, lock-and-key
    allocation metadata, and explicit metadata-propagation instructions."""

    mechanism = "watchdog"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shadow = ShadowMemory(self.memory, self.address_layout)

    def _shadow_addr(self, address: int) -> int:
        heap = self.address_layout
        if heap.in_heap(address):
            return self.shadow.shadow_address(address)
        # Non-heap pointers still have identifier slots in Watchdog.
        span = heap.shadow_size // 2
        return heap.shadow_base + span + (address % span)

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        # key = unique_id++; lock = new_lock(); *(lock) = key; setid (Fig. 5a).
        self.builder.emit_op(Op.ALU)
        self.builder.emit_op(Op.ALU)
        self.builder.emit_op(Op.STORE, address=self._lock_addr(obj))
        self.builder.emit_op(Op.WMETA)

    def lower_free(self, obj: int) -> None:
        # *(id.lock) = INVALID; add_free_list(lock) (Fig. 5a).
        self.builder.emit_op(Op.STORE, address=self._lock_addr(obj))
        self.builder.emit_op(Op.ALU)
        super().lower_free(obj)

    def _lock_addr(self, obj: int) -> int:
        """One lock word per object: the compact lock-location table that
        Watchdog's check µops read (and its lock-location cache caches)."""
        return self.address_layout.shadow_base + 8 * obj

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        # check R2.id µop loads *(id.lock) (Fig. 5a line 14); the access
        # consumes its verdict (precise traps), serialising check->use.
        self.builder.emit_op(Op.WCHK, address=self._lock_addr(obj))
        self._emit_load(address, chase, dep if dep else 1)
        if is_ptr:
            # ld R1.id <- ShadowMem[R2].id: pointer loads pull the stored
            # pointer's metadata from shadow space (a scattered 24B record).
            self.builder.emit_op(
                Op.LOAD, address=self._shadow_addr(address), deps=(1,)
            )

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit_op(Op.WCHK, address=self._lock_addr(obj))
        self._emit_store(address, dep if dep else 1)
        if is_ptr:
            # ShadowMem[R2].id <- R1.id: metadata propagates with the store.
            self.builder.emit_op(Op.STORE, address=self._shadow_addr(address))

    def lower_ptr_arith(self) -> None:
        # R1.id <- R2.id metadata copy accompanies pointer arithmetic.
        self.builder.emit_op(Op.ALU)
        self.builder.emit_op(Op.WMETA)


class PALowering(_LoweringBase):
    """PARTS-style PA: return-address signing on call/ret plus data-pointer
    on-store signing and on-load authentication (§VII-B, [21])."""

    mechanism = "pa"

    def lower_call(self) -> None:
        self.builder.emit_op(Op.PACIA)
        self.builder.emit_op(Op.CALL)

    def lower_ret(self) -> None:
        self.builder.emit_op(Op.AUTIA)
        self.builder.emit_op(Op.RET, deps=(1,))

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address, chase, dep)
        if is_ptr:
            self.builder.emit_op(Op.AUTDA, deps=(1,))

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        if is_ptr:
            self.builder.emit_op(Op.PACDA)
            self._emit_store(address, dep if dep else 1)
        else:
            self._emit_store(address, dep)


class RESTLowering(_LoweringBase):
    """REST-style trip-wire timing model [8] (§IV-C's comparison point).

    Allocation writes 64-byte token redzones around each chunk; free
    *poisons the whole chunk with tokens* and parks it in a quarantine
    pool, un-poisoning (and re-writing) it only when the pool recycles the
    chunk.  Those O(object-size) token fills on the free path are exactly
    what the paper credits for most of REST's overhead — "avoiding the use
    of a quarantine pool will be beneficial in terms of performance"
    (§IV-C).  ``quarantine=False`` gives the ablation without temporal
    protection.
    """

    mechanism = "rest"

    #: Token granularity: one 8-byte token store per 64 bytes poisoned
    #: (REST tokens are cache-line granular).
    TOKEN_SPAN = 64
    REDZONE = 64

    def __init__(self, *args, quarantine: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.quarantine = quarantine
        self._sizes: Dict[int, int] = {}
        self._pool: List[tuple] = []  # (address, size) awaiting recycling

    def _emit_tokens(self, address: int, length: int) -> None:
        for offset in range(0, max(length, 1), self.TOKEN_SPAN):
            self.builder.emit_op(Op.STORE, address=address + offset, meta="token")

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        ptr = self.pointers[obj]
        self._sizes[obj] = size
        # Blacklist the surrounding regions (leading + trailing redzones).
        self._emit_tokens(ptr - self.REDZONE, self.REDZONE)
        self._emit_tokens(ptr + size, self.REDZONE)

    def lower_free(self, obj: int) -> None:
        ptr = self.pointers[obj]
        size = self._sizes.get(obj, 64)
        if self.quarantine:
            # Poison the whole chunk and park it (deferred free).
            self._emit_tokens(ptr, size)
            self._pool.append((obj, size))
            if len(self._pool) > 64:
                old_obj, old_size = self._pool.pop(0)
                # Recycling un-poisons the old chunk, then really frees it.
                self._emit_tokens(self.pointers[old_obj], old_size)
                super().lower_free(old_obj)
        else:
            # No quarantine: clear the redzones and free immediately.
            self._emit_tokens(ptr - self.REDZONE, self.REDZONE)
            self._emit_tokens(ptr + size, self.REDZONE)
            super().lower_free(obj)


class MTELowering(_LoweringBase):
    """Memory-tagging (Arm MTE / SPARC ADI) timing model — the §X
    comparison point AOS is positioned against.

    Tag checks ride along with each access (the tag travels with the
    line and is checked in parallel — no added latency per access), but
    allocation and deallocation pay tag-colouring stores: one STG-style
    instruction per pair of 16-byte granules, which is what gives tagging
    its malloc-rate- and object-size-proportional overhead.
    """

    mechanism = "mte"

    #: Granules coloured per stg-like instruction (ST2G colours 32 B).
    GRANULES_PER_STG = 2

    def _emit_colouring(self, address: int, size: int) -> None:
        granules = max(1, (size + 15) // 16)
        stores = (granules + self.GRANULES_PER_STG - 1) // self.GRANULES_PER_STG
        for i in range(stores):
            # Tag stores touch the object's own lines (tags travel with
            # the data in the modelled hierarchy).
            self.builder.emit_op(Op.STORE, address=address + 32 * i, meta="stg")

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        self.builder.emit_op(Op.ALU)  # IRG: draw a random tag
        self._emit_colouring(self.pointers[obj], size)

    def lower_free(self, obj: int) -> None:
        ptr = self.pointers[obj]
        # Re-colour on free (temporal protection), then release.
        size = self.allocator.allocated_size(ptr)
        self._emit_colouring(ptr, size)
        super().lower_free(obj)


class PACStackLowering(_LoweringBase):
    """PACStack: an authenticated return-address chain and nothing else.

    Each call chains the new return address to the previous authentication
    token (one ``pacia``), each return verifies it (one ``autia``); the
    heap path is byte-for-byte the baseline lowering.  The cheapest of the
    PA-based related-work points — and the narrowest.
    """

    mechanism = "pacstack"

    def lower_call(self) -> None:
        self.builder.emit_op(Op.PACIA)
        self.builder.emit_op(Op.CALL)

    def lower_ret(self) -> None:
        self.builder.emit_op(Op.AUTIA)
        self.builder.emit_op(Op.RET, deps=(1,))


class PACTightLowering(PALowering):
    """PACTight: identity-sealed pointers over the PA data-path lowering.

    On top of PARTS-style call/ret and pointer-move signing, allocation
    draws a per-object identity tag and seals the new pointer with it
    (tag-table store + ``pacda``); free authenticates the seal and
    destroys the tag (``autda`` + tag-table store).  No bounds checks —
    per-access cost is identical to plain PA.
    """

    mechanism = "pactight"

    def _tag_addr(self, obj: int) -> int:
        return self.address_layout.shadow_base + 8 * obj

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        # tag = random_tag(); tag_table[obj] = tag ; seal = pacda(ptr, tag)
        self.builder.emit_op(Op.ALU)
        self.builder.emit_op(Op.STORE, address=self._tag_addr(obj), meta="tag")
        self.builder.emit_op(Op.PACDA)

    def lower_free(self, obj: int) -> None:
        # autda(ptr, tag_table[obj]) ; tag_table[obj] = INVALID
        self.builder.emit_op(Op.LOAD, address=self._tag_addr(obj))
        self.builder.emit_op(Op.AUTDA, deps=(1,))
        self.builder.emit_op(Op.STORE, address=self._tag_addr(obj), meta="tag")
        super().lower_free(obj)


class PACSanLowering(_LoweringBase):
    """PACSan: shadow-metadata PAC checks on *every* heap access.

    Allocation signs a shadow record (base, size, liveness) for the new
    object; every load and store first loads that record and authenticates
    the pointer against it (shadow ``load`` + ``autda``), serialising
    check before use — the sanitizer-style always-checked point in the
    Pareto plot.
    """

    mechanism = "pacsan"

    def _shadow_addr(self, obj: int) -> int:
        return self.address_layout.shadow_base + 16 * obj

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        # shadow[obj] = pacda(base, oid) || (base, size, alive)
        self.builder.emit_op(Op.PACDA)
        self.builder.emit_op(Op.STORE, address=self._shadow_addr(obj), meta="shadow")

    def lower_free(self, obj: int) -> None:
        # Authenticate, then clear the liveness bit in the shadow record.
        self.builder.emit_op(Op.LOAD, address=self._shadow_addr(obj))
        self.builder.emit_op(Op.AUTDA, deps=(1,))
        self.builder.emit_op(Op.STORE, address=self._shadow_addr(obj), meta="shadow")
        super().lower_free(obj)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self.builder.emit_op(Op.LOAD, address=self._shadow_addr(obj))
        self.builder.emit_op(Op.AUTDA, deps=(1,))
        self._emit_load(address, chase, dep if dep else 1)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit_op(Op.LOAD, address=self._shadow_addr(obj))
        self.builder.emit_op(Op.AUTDA, deps=(1,))
        self._emit_store(address, dep if dep else 1)


class CryptSanLowering(_LoweringBase):
    """CryptSan: per-object MACs over 16-byte granules, checked everywhere.

    Allocation computes the object MAC (``pacma``) and tags every granule
    (one tag store per 16 B — twice MTE's colouring traffic); free
    re-authenticates and untags.  Every access recomputes and compares the
    MAC (``autda`` on the QARMA-latency path), making this the heaviest —
    and spatially/temporally strongest — related-work point.
    """

    mechanism = "cryptsan"

    GRANULE = 16

    def _emit_granule_tags(self, address: int, size: int) -> None:
        for offset in range(0, max(size, 1), self.GRANULE):
            self.builder.emit_op(
                Op.STORE, address=address + offset, meta="mac-tag"
            )

    def lower_malloc(self, obj: int, size: int) -> None:
        super().lower_malloc(obj, size)
        self.builder.emit_op(Op.PACMA)  # MAC over (base, version)
        self._emit_granule_tags(self.pointers[obj], size)

    def lower_free(self, obj: int) -> None:
        ptr = self.pointers[obj]
        size = self.allocator.allocated_size(ptr)
        self.builder.emit_op(Op.AUTDA)  # authenticate before releasing
        self._emit_granule_tags(ptr, size)  # untag
        super().lower_free(obj)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self.builder.emit_op(Op.AUTDA)  # MAC check gates the access
        self._emit_load(address, chase, dep if dep else 1)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit_op(Op.AUTDA)
        self._emit_store(address, dep if dep else 1)


class _PrewarmedHBT:
    """The ``hbt_factory`` of the AOS lowerings: one preamble-warmed HBT,
    cloned per simulation run.

    The first call inserts the preamble into a fresh table (a lowered
    program that never runs pays nothing) and keeps the table only once
    every insert has succeeded: a call that fails, because the table would
    outgrow its maximum associativity, keeps nothing, so the next call
    fails the same way.  Every lowering that shares this object — ``aos``
    and ``pa+aos`` of one trace, under one signing key and HBT geometry —
    then clones the kept table.  It holds the table's constructor, the
    preamble and its signed pointers, and nothing of the lowering itself.
    """

    def __init__(
        self,
        empty: Callable[[], HashedBoundsTable],
        layout: PointerLayout,
        preamble: Sequence[Tuple[int, int]],
        signed: Sequence[int],
    ) -> None:
        self._empty = empty
        self._layout = layout
        self._preamble = preamble
        self._signed = signed
        self._hbt: Optional[HashedBoundsTable] = None

    def __call__(self) -> HashedBoundsTable:
        if self._hbt is None:
            hbt = self._empty()
            layout = self._layout
            for (_, size), pointer in zip(self._preamble, self._signed):
                self._insert_with_resize(
                    hbt, layout.pac(pointer), layout.address(pointer), size
                )
            self._hbt = hbt
            self._preamble = self._signed = ()
        return self._hbt.clone()

    @staticmethod
    def _insert_with_resize(
        hbt: HashedBoundsTable, pac: int, lower: int, size: int
    ) -> None:
        while True:
            try:
                hbt.insert(pac, lower, size)
                return
            except SimulationError:
                # Insertion failure -> AOS exception -> OS resize (§IV-D).
                hbt.begin_resize()
                hbt.finish_resize()


class AOSLowering(_LoweringBase):
    """AOS (Fig. 7): sign heap pointers, manage bounds, no per-access
    instrumentation.  ``pa_integrity=True`` gives the PA+AOS configuration:
    call/ret signing plus 1-cycle ``autm`` on-load authentication.

    The signed preamble and the preamble-warmed HBT come from the trace's
    :class:`LoweringPlan`, keyed by everything they depend on: the address
    layout, the PA key, ``pac_bits``, the PAC mode and ``sp`` for the
    signing, plus the HBT geometry and bounds compression for the table.
    ``aos`` and ``pa+aos`` of one trace share both.
    """

    mechanism = "aos"

    def __init__(
        self,
        trace: WorkloadTrace,
        config: Optional[SystemConfig] = None,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pa_integrity: bool = False,
        pac_mode: str = "fast",
        plan: Optional[LoweringPlan] = None,
    ) -> None:
        if pa_integrity:
            self.mechanism = "pa+aos"
        super().__init__(trace, config, address_layout, plan)
        self.pa_integrity = pa_integrity

        # Scale the PAC space with the live-set scale so HBT occupancy per
        # row matches the full-size system (see workloads.generator).
        scale_bits = int(math.log2(trace.scale)) if trace.scale > 1 else 0
        self.pac_bits = max(11, self.config.pa.pac_bits - scale_bits)
        self.pointer_layout = PointerLayout(pac_bits=self.pac_bits)
        generator = PACGenerator(
            keys=PAKeys(apma=self.config.pa.key),
            pac_bits=self.pac_bits,
            mode=pac_mode,
        )
        self.signer = PointerSigner(generator=generator, layout=self.pointer_layout)
        self.sp = address_layout.stack_top - 0x100
        #: Everything the signed preamble depends on besides the trace.
        self._signing_key = (
            address_layout,
            self.config.pa.key,
            self.pac_bits,
            pac_mode,
            self.sp,
        )
        #: The signed preamble pointers, shared through the plan.
        self._preamble_signed: List[int] = []

    # ------------------------------------------------------------- preamble

    def setup_preamble(self) -> None:
        # Allocate first (malloc order defines the address layout), then
        # take the signed preamble from the plan: the first lowering with
        # this signing key signs it in one batch (QARMA mode vectorises the
        # PAC computation instead of one scalar permutation per object).
        preamble = self.trace.preamble
        sizes = [size for _, size in preamble]
        raws = self.allocator.malloc_many(sizes)
        self._preamble_signed = self.plan.shared(
            ("preamble",) + self._signing_key,
            lambda: self.signer.pacma_batch(raws, self.sp, sizes),
        )
        self.pointers.update(zip((obj for obj, _ in preamble), self._preamble_signed))

    def _hbt_factory(self) -> _PrewarmedHBT:
        hbt, compression = self.config.hbt, self.config.aos.bounds_compression
        # ``partial`` and the shared lists hold no reference to self.
        empty = partial(
            HashedBoundsTable,
            pac_bits=self.pac_bits,
            initial_ways=hbt.initial_ways,
            layout=self.address_layout,
            compression=compression,
        )
        layout, preamble, signed = (
            self.pointer_layout,
            self.trace.preamble,
            self._preamble_signed,
        )
        return self.plan.shared(
            ("hbt",) + self._signing_key + (hbt, compression),
            lambda: _PrewarmedHBT(empty, layout, preamble, signed),
        )

    # ------------------------------------------------------------ lowerings

    def lower_malloc(self, obj: int, size: int) -> None:
        self._emit_allocator_work(size)
        raw = self.allocator.malloc(size)
        signed = self.signer.pacma(raw, self.sp, size)
        self.pointers[obj] = signed
        # Fig. 7a: pacma ptr, sp, size ; bndstr ptr, size
        self.builder.emit_op(Op.PACMA, address=signed, size=size)
        self.builder.emit_op(Op.BNDSTR, address=signed, size=size, deps=(1,))

    def lower_free(self, obj: int) -> None:
        signed = self.pointers[obj]
        # Fig. 7b: bndclr ; xpacm ; free() ; pacma ptr, sp, xzr
        self.builder.emit_op(Op.BNDCLR, address=signed)
        self.builder.emit_op(Op.XPACM)
        stripped = self.signer.xpacm(signed)
        self._emit_allocator_work(0)
        self.allocator.free(stripped)
        self.builder.emit_op(Op.PACMA, address=stripped, size=0)
        self.pointers[obj] = self.signer.pacma(stripped, self.sp, 0)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address, chase, dep)
        if self.pa_integrity and is_ptr:
            # Fig. 13: on-load authentication with autm (1 cycle, no QARMA).
            self.builder.emit_op(Op.AUTM, deps=(1,))

    def lower_call(self) -> None:
        if self.pa_integrity:
            self.builder.emit_op(Op.PACIA)
        self.builder.emit_op(Op.CALL)

    def lower_ret(self) -> None:
        if self.pa_integrity:
            self.builder.emit_op(Op.AUTIA)
            self.builder.emit_op(Op.RET, deps=(1,))
        else:
            self.builder.emit_op(Op.RET)

    def _finish(self) -> LoweredWorkload:
        return LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=self.builder.build(),
            pointer_layout=self.pointer_layout,
            hbt_factory=self._hbt_factory(),
            trace_events=len(self.trace.events),
        )


_LOWERINGS = {
    "baseline": BaselineLowering,
    "watchdog": WatchdogLowering,
    "pa": PALowering,
    "mte": MTELowering,
    "rest": RESTLowering,
    "pacstack": PACStackLowering,
    "pactight": PACTightLowering,
    "pacsan": PACSanLowering,
    "cryptsan": CryptSanLowering,
}


def resolve_lowering(mechanism: str) -> str:
    """Map a registered mechanism name to its lowering token.

    Known lowering tokens pass through; anything else is looked up in the
    mechanism registry, whose :class:`~repro.mechanisms.registry.MechanismSpec`
    may alias an existing lowering (how a plugin reuses, say, the baseline
    timing model).  Untimed mechanisms (``lowering=None``) and unknown
    names raise :class:`~repro.errors.WorkloadError`.
    """
    if mechanism in _LOWERINGS or mechanism in ("aos", "pa+aos"):
        return mechanism
    from ..mechanisms.registry import REGISTRY

    if mechanism in REGISTRY:
        alias = REGISTRY.spec(mechanism).lowering
        if alias is not None and alias != mechanism:
            return resolve_lowering(alias)
        raise WorkloadError(
            f"mechanism {mechanism!r} has no timing lowering (untimed)"
        )
    raise WorkloadError(f"unknown mechanism {mechanism!r}")


def lower_trace(
    trace: WorkloadTrace,
    mechanism: str,
    config: Optional[SystemConfig] = None,
    pac_mode: str = "fast",
    plan: Optional[LoweringPlan] = None,
) -> LoweredWorkload:
    """Lower ``trace`` for one protection mechanism.

    ``plan`` is the trace's :class:`LoweringPlan`, to share per-trace work
    with other lowerings of the same trace; without one the lowering does
    all of it alone.  The program is the same either way.
    """
    mechanism = resolve_lowering(mechanism)
    if mechanism in _LOWERINGS:
        lowering = _LOWERINGS[mechanism](trace, config, plan=plan)
    else:
        lowering = AOSLowering(
            trace,
            config,
            pa_integrity=mechanism == "pa+aos",
            pac_mode=pac_mode,
            plan=plan,
        )
    return lowering.lower()
