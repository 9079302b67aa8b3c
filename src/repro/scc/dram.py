"""Off-chip DDR3 memory controllers with a queueing contention model.

The SCC routes each core's DRAM traffic to one of four controllers;
with 32 active cores that is ≥8 cores per controller, which is exactly
the contention the paper blames for Dot Product and LU Decomposition
trailing the compute-bound benchmarks in Figure 6.1.

We model contention analytically: a controller access costs its base
latency plus ``queue_cycles`` for every *other* core currently
streaming through the same controller.  Runners declare which cores are
active; the model is deliberately first-order (an M/D/1-flavoured
linear approximation) because only the relative shape matters.
"""


class MemoryControllerStats:
    __slots__ = ("reads", "writes", "busy_cycles", "ecc_corrected")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.busy_cycles = 0
        # flipped reads the scrubber repaired (repro.recovery.ecc)
        self.ecc_corrected = 0

    @property
    def accesses(self):
        return self.reads + self.writes

    def __repr__(self):
        return "MemoryControllerStats(r=%d, w=%d, busy=%d)" % (
            self.reads, self.writes, self.busy_cycles)


class MemoryController:
    """One DDR3 controller."""

    def __init__(self, index, config):
        self.index = index
        self.config = config
        self.active_requesters = set()
        self.stats = MemoryControllerStats()

    def register_requester(self, core):
        self.active_requesters.add(core)

    def unregister_requester(self, core):
        self.active_requesters.discard(core)

    @property
    def queue_depth(self):
        """Concurrent streams other than the requester itself."""
        return max(len(self.active_requesters) - 1, 0)

    def access_cycles(self, kind, hops=0):
        """Cycle cost of one access through this controller."""
        base = self.config.dram_base_cycles
        mesh = hops * self.config.mesh_cycles_per_hop
        queue = self.queue_depth * self.config.dram_queue_cycles
        cost = base + mesh + queue
        if kind == "read":
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        self.stats.busy_cycles += cost
        return cost

    def __repr__(self):
        return "MemoryController(%d, %d active)" % (
            self.index, len(self.active_requesters))
