"""Machine state: flat memory and per-core stack allocators."""

import threading


class Memory:
    """Flat address-to-value storage shared by all simulated cores.

    Values live at their base addresses (element-granular); the address
    arithmetic uses real byte strides so layouts match the C types, but
    storage itself is a dict, which keeps the simulator simple and safe.
    Loads of never-written addresses return the segment default (0) —
    like the zeroed pages a real OS hands out.
    """

    __slots__ = ("_data", "_lock", "get", "put")

    def __init__(self):
        self._data = {}
        self._lock = threading.Lock()
        # pre-bound accessors for the compiled engine's hot path (one
        # attribute fetch instead of a method call per load/store)
        self.get = self._data.get
        self.put = self._data.__setitem__

    def load(self, addr, default=0):
        # dict reads are atomic under the GIL; no lock on the hot path
        return self._data.get(addr, default)

    def store(self, addr, value):
        self._data[addr] = value

    def memset(self, addr, value, count, stride):
        with self._lock:
            for index in range(count):
                self._data[addr + index * stride] = value

    def memcpy(self, dst, src, count, stride, default=0):
        with self._lock:
            for index in range(count):
                self._data[dst + index * stride] = self._data.get(
                    src + index * stride, default)

    def snapshot_range(self, addr, count, stride, default=0):
        return [self._data.get(addr + i * stride, default)
                for i in range(count)]

    def items(self):
        """Every written (address, value) pair, address-sorted — the
        checkpoint layer's full-state capture.  Only called at barrier
        quiesce points, where no simulated core is mid-store."""
        with self._lock:
            return sorted(self._data.items(), key=lambda kv: kv[0])

    def __len__(self):
        return len(self._data)


class StackAllocator:
    """Bump allocator for one core's call stack inside its private
    window.  The compiled ``invoke`` saves the stack pointer on entry
    and restores it on exit, so recursion does not leak address
    space."""

    __slots__ = ("base", "size", "sp")

    def __init__(self, base, size):
        self.base = base
        self.size = size
        self.sp = base

    def alloc(self, nbytes, alignment=8):
        nbytes = max((nbytes + alignment - 1) // alignment * alignment,
                     alignment)
        addr = self.sp
        self.sp += nbytes
        if self.sp > self.base + self.size:
            raise MemoryError("simulated stack overflow")
        return addr

    @property
    def used(self):
        return self.sp - self.base
