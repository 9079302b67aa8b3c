"""Memory and stack allocator tests."""

import pytest

from repro.sim.machine import Memory, StackAllocator


class TestMemory:
    def test_load_default_zero(self):
        assert Memory().load(0x1234) == 0

    def test_store_load(self):
        memory = Memory()
        memory.store(0x100, 3.5)
        assert memory.load(0x100) == 3.5

    def test_memset(self):
        memory = Memory()
        memory.memset(0x100, 7, count=4, stride=4)
        assert [memory.load(0x100 + i * 4) for i in range(4)] == [7] * 4

    def test_memcpy(self):
        memory = Memory()
        for i in range(3):
            memory.store(0x200 + i * 8, i + 10)
        memory.memcpy(0x400, 0x200, count=3, stride=8)
        assert memory.load(0x410) == 12

    def test_snapshot_range(self):
        memory = Memory()
        memory.store(0x100, 1)
        memory.store(0x104, 2)
        assert memory.snapshot_range(0x100, 3, 4) == [1, 2, 0]

    def test_len(self):
        memory = Memory()
        memory.store(1, 1)
        memory.store(2, 2)
        assert len(memory) == 2


class TestStackAllocator:
    def test_bump(self):
        stack = StackAllocator(0x1000, 256)
        first = stack.alloc(8)
        second = stack.alloc(8)
        assert second == first + 8

    def test_alignment(self):
        stack = StackAllocator(0x1000, 256)
        stack.alloc(3)
        addr = stack.alloc(8)
        assert addr % 8 == 0

    def test_overflow(self):
        stack = StackAllocator(0x1000, 64)
        with pytest.raises(MemoryError):
            stack.alloc(128)
