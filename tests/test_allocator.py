"""Heap allocator tests: alignment, reuse, coalescing, glibc behaviours."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocatorError
from repro.memory.allocator import (
    ALIGNMENT,
    HEADER_SIZE,
    MIN_CHUNK,
    HeapAllocator,
    chunk_size_for_request,
)
from repro.memory.layout import DEFAULT_LAYOUT
from repro.memory.memory import SparseMemory


def make_allocator(use_tcache: bool = True) -> HeapAllocator:
    return HeapAllocator(SparseMemory(), DEFAULT_LAYOUT, use_tcache=use_tcache)


class TestChunkSizing:
    def test_minimum(self):
        assert chunk_size_for_request(1) == MIN_CHUNK

    def test_alignment(self):
        for req in (1, 17, 24, 100, 1000):
            assert chunk_size_for_request(req) % ALIGNMENT == 0

    def test_rejects_negative(self):
        with pytest.raises(AllocatorError):
            chunk_size_for_request(-1)


class TestMalloc:
    def test_returns_16_byte_aligned_payloads(self):
        alloc = make_allocator()
        for size in (1, 8, 24, 100, 4096):
            assert alloc.malloc(size) % 16 == 0

    def test_payloads_in_heap(self):
        alloc = make_allocator()
        p = alloc.malloc(64)
        assert DEFAULT_LAYOUT.in_heap(p)

    def test_distinct_allocations_do_not_overlap(self):
        alloc = make_allocator()
        spans = []
        for _ in range(50):
            p = alloc.malloc(48)
            spans.append((p, p + 48))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_malloc_zero_returns_valid_chunk(self):
        alloc = make_allocator()
        p = alloc.malloc(0)
        assert alloc.allocated_size(p) >= 1

    def test_usable_size_at_least_request(self):
        alloc = make_allocator()
        p = alloc.malloc(100)
        assert alloc.allocated_size(p) >= 100

    def test_heap_exhaustion(self):
        alloc = make_allocator()
        with pytest.raises(AllocatorError):
            for _ in range(10000):
                alloc.malloc(1 << 26)


class TestFreeAndReuse:
    def test_tcache_lifo_reuse(self):
        alloc = make_allocator()
        p = alloc.malloc(48)
        alloc.free(p)
        q = alloc.malloc(48)
        assert q == p  # tcache returns the most recently freed chunk

    def test_fastbin_reuse_without_tcache(self):
        alloc = make_allocator(use_tcache=False)
        p = alloc.malloc(48)
        alloc.free(p)
        assert alloc.malloc(48) == p

    def test_free_null_is_noop(self):
        make_allocator().free(0)

    def test_free_misaligned_rejected(self):
        alloc = make_allocator()
        p = alloc.malloc(64)
        with pytest.raises(AllocatorError):
            alloc.free(p + 4)

    def test_fastbin_double_free_detected_at_top(self):
        alloc = make_allocator(use_tcache=False)
        p = alloc.malloc(48)
        alloc.free(p)
        with pytest.raises(AllocatorError):
            alloc.free(p)

    def test_tcache_double_free_not_detected(self):
        """glibc 2.26 shipped tcache without a double-free check — the new
        heap exploit the paper cites (§VII-D)."""
        alloc = make_allocator(use_tcache=True)
        p = alloc.malloc(48)
        alloc.free(p)
        alloc.free(p)  # silently accepted: the tcache poisoning primitive
        assert alloc.malloc(48) == p
        assert alloc.malloc(48) == p  # same chunk handed out twice!

    def test_large_chunk_coalescing(self):
        alloc = make_allocator()
        a = alloc.malloc(2048)
        b = alloc.malloc(2048)
        alloc.malloc(64)  # plug the top so frees don't merge into it
        alloc.free(a)
        alloc.free(b)  # should coalesce with a
        big = alloc.malloc(4096)
        # The coalesced region must be reused rather than growing the heap.
        assert big == a

    def test_free_list_splits_remainder(self):
        alloc = make_allocator()
        a = alloc.malloc(4096)
        alloc.malloc(64)
        alloc.free(a)
        small = alloc.malloc(512)
        assert small == a  # head of the freed chunk
        second = alloc.malloc(512)
        assert a < second < a + 4096 + HEADER_SIZE  # from the remainder


class TestStats:
    def test_counts(self):
        alloc = make_allocator()
        ptrs = [alloc.malloc(64) for _ in range(10)]
        for p in ptrs[:4]:
            alloc.free(p)
        assert alloc.stats.allocations == 10
        assert alloc.stats.deallocations == 4
        assert alloc.stats.active == 6
        assert alloc.stats.max_active == 10

    def test_max_active_tracks_peak(self):
        alloc = make_allocator()
        p1 = alloc.malloc(32)
        alloc.free(p1)
        alloc.malloc(32)
        alloc.malloc(32)
        assert alloc.stats.max_active == 2


class TestBoundaryTags:
    def test_size_field_written(self):
        alloc = make_allocator()
        p = alloc.malloc(48)
        raw = alloc.memory.read_u64(p - 8)
        assert raw & ~0x7 == chunk_size_for_request(48)

    def test_fake_chunk_enters_fastbin(self):
        """The House-of-Spirit entry point: free() trusts memory contents."""
        alloc = make_allocator(use_tcache=False)
        fake = DEFAULT_LAYOUT.globals_base + 0x1000
        alloc.memory.write_u64(fake + 8, 0x40)  # plausible size field
        alloc.free(fake + HEADER_SIZE)          # accepted!
        victim = alloc.malloc(0x30)
        assert victim == fake + HEADER_SIZE     # attacker-controlled memory


@given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_no_live_overlap_property(sizes):
    """Live allocations never overlap, whatever the size sequence."""
    alloc = make_allocator()
    live = []
    for i, size in enumerate(sizes):
        p = alloc.malloc(size)
        live.append((p, size))
        if i % 3 == 2:
            victim = live.pop(0)
            alloc.free(victim[0])
    spans = sorted((p, p + s) for p, s in live)
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 <= b0


def _state(alloc):
    return (
        alloc.heap_used,
        alloc.stats,
        alloc.memory._pages,
        [(c.address, c.size, c.in_use) for c in alloc.live_chunks()],
    )


class TestMallocMany:
    """The bulk path must leave exactly the state a malloc loop leaves."""

    @given(
        st.lists(st.integers(min_value=0, max_value=9000), max_size=80),
        st.lists(st.integers(min_value=1, max_value=2048), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_malloc_loop(self, requests, churn):
        bulk, loop = make_allocator(), make_allocator()
        for alloc in (bulk, loop):
            # Optional churn first: with freed chunks in the bins the bulk
            # path must fall back to per-call mallocs that reuse them.
            for size in churn:
                alloc.free(alloc.malloc(size))
        assert bulk.malloc_many(requests) == [loop.malloc(r) for r in requests]
        assert _state(bulk) == _state(loop)

    def test_fresh_allocator_lays_chunks_back_to_back(self):
        alloc = make_allocator()
        payloads = alloc.malloc_many([1, 100, 0, 4096])
        sizes = [chunk_size_for_request(r) for r in (1, 100, 1, 4096)]
        expected = DEFAULT_LAYOUT.heap_base + HEADER_SIZE
        for payload, size in zip(payloads, sizes):
            assert payload == expected
            assert alloc.allocated_size(payload) == size - HEADER_SIZE
            expected += size
        assert alloc.stats.max_active == 4

    def test_exhaustion_raises_like_malloc(self):
        alloc = make_allocator()
        with pytest.raises(AllocatorError):
            alloc.malloc_many([DEFAULT_LAYOUT.heap_end - DEFAULT_LAYOUT.heap_base])
        with pytest.raises(AllocatorError):
            alloc.malloc_many([-1])
