"""Sparse memory model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory.memory import PAGE_SIZE, SparseMemory


class TestBasics:
    def test_reads_zero_by_default(self):
        mem = SparseMemory()
        assert mem.read_u64(0x1000) == 0
        assert mem.read_bytes(0x2000, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, 0xDEADBEEFCAFEBABE)
        assert mem.read_u64(0x1000) == 0xDEADBEEFCAFEBABE

    def test_little_endian(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, 0x0102030405060708)
        assert mem.read_bytes(0x1000, 1) == b"\x08"

    def test_u32(self):
        mem = SparseMemory()
        mem.write_u32(0x1000, 0x12345678)
        assert mem.read_u32(0x1000) == 0x12345678

    def test_write_masks_to_64_bits(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, (1 << 70) | 5)
        assert mem.read_u64(0x1000) == 5

    def test_fill(self):
        mem = SparseMemory()
        mem.fill(0x1000, 32, 0xAB)
        assert mem.read_bytes(0x1000, 32) == b"\xab" * 32


class TestPageBoundaries:
    def test_cross_page_write(self):
        mem = SparseMemory()
        addr = PAGE_SIZE - 4
        mem.write_u64(addr, 0x1122334455667788)
        assert mem.read_u64(addr) == 0x1122334455667788

    def test_cross_many_pages(self):
        mem = SparseMemory()
        data = bytes(range(256)) * 64  # 16 KB
        mem.write_bytes(PAGE_SIZE - 100, data)
        assert mem.read_bytes(PAGE_SIZE - 100, len(data)) == data

    def test_resident_pages_grow_on_demand(self):
        mem = SparseMemory()
        assert mem.resident_pages == 0
        mem.write_u64(0x1000, 1)
        assert mem.resident_pages == 1
        mem.write_u64(100 * PAGE_SIZE, 1)
        assert mem.resident_pages == 2

    def test_reads_do_not_allocate(self):
        mem = SparseMemory()
        mem.read_bytes(0x100000, 4096)
        assert mem.resident_pages == 0


class TestBoundsChecks:
    def test_rejects_negative_address(self):
        with pytest.raises(MemoryError_):
            SparseMemory().read_bytes(-1, 8)

    def test_write_u64_rejects_negative_address(self):
        # -8 would land page-aligned inside a page without the range check.
        with pytest.raises(MemoryError_):
            SparseMemory().write_u64(-8, 1)

    def test_rejects_out_of_range(self):
        mem = SparseMemory(va_bits=46)
        with pytest.raises(MemoryError_):
            mem.write_u64(1 << 46, 1)

    def test_accepts_top_of_range(self):
        mem = SparseMemory(va_bits=46)
        mem.write_u64((1 << 46) - 8, 7)
        assert mem.read_u64((1 << 46) - 8) == 7


@given(
    st.integers(min_value=0, max_value=(1 << 30)),
    st.binary(min_size=1, max_size=512),
)
def test_roundtrip_property(address, data):
    mem = SparseMemory()
    mem.write_bytes(address, data)
    assert mem.read_bytes(address, len(data)) == data


@given(st.integers(min_value=0, max_value=(1 << 30)))
def test_adjacent_writes_do_not_clobber(address):
    mem = SparseMemory()
    mem.write_u64(address, 0xAAAAAAAAAAAAAAAA)
    mem.write_u64(address + 8, 0xBBBBBBBBBBBBBBBB)
    assert mem.read_u64(address) == 0xAAAAAAAAAAAAAAAA

