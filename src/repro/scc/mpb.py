"""The on-die Message Passing Buffer: 8 KB of SRAM per core, 384 KB
total, addressable by every core over the mesh (paper §5.1).

An MPB access costs the small SRAM round-trip plus mesh hops from the
requesting core to the tile that owns the target MPB segment — so
"the locality for core-to-MPB is much closer than that of core-to-DRAM"
(paper §6), and bulk transfers amortize the fixed cost.
"""


class MPBStats:
    __slots__ = ("reads", "writes", "bytes_moved", "corrupted_reads",
                 "ecc_corrected")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.bytes_moved = 0
        # reads whose value an injected fault flipped (repro.faults)
        self.corrupted_reads = 0
        # flipped reads the scrubber repaired (repro.recovery.ecc)
        self.ecc_corrected = 0

    def __repr__(self):
        return "MPBStats(r=%d, w=%d, bytes=%d, corrupted=%d, ecc=%d)" \
            % (self.reads, self.writes, self.bytes_moved,
               self.corrupted_reads, self.ecc_corrected)


class MessagePassingBuffer:
    """The chip-wide MPB, divided into per-core segments."""

    def __init__(self, config, mesh):
        self.config = config
        self.mesh = mesh
        self.stats = MPBStats()
        # cycle attribution (repro.obs.attribution): the MPB knows the
        # hop/SRAM split of every cost it prices, so the engine hooks
        # here; ``None`` keeps both cost methods branch-free.  The
        # (mesh_hop, mpb) cell pair is cached per requester; the
        # entries stay valid while one engine is attached
        # (attach/detach clears them)
        self.attribution = None
        self._attr_cells = {}
        # opt-in per-owner-segment utilization for the chip report's
        # MPB heatmap; keyed (owner, requester) so each entry has a
        # single writer thread
        self.record_owner_traffic = False
        self.owner_traffic = {}

    def enable_owner_tracking(self):
        self.record_owner_traffic = True

    def owner_traffic_totals(self):
        """Aggregate the (owner, requester) split to per-owner
        ``{"reads": r, "writes": w, "bytes": b}`` rows."""
        totals = {}
        for (owner, _), counts in self.owner_traffic.items():
            row = totals.setdefault(owner,
                                    {"reads": 0, "writes": 0,
                                     "bytes": 0})
            row["reads"] += counts[0]
            row["writes"] += counts[1]
            row["bytes"] += counts[2]
        return totals

    def _owner_cell(self, owner, requester):
        key = (owner, requester)
        cell = self.owner_traffic.get(key)
        if cell is None:
            cell = self.owner_traffic[key] = [0, 0, 0]
        return cell

    @property
    def segment_bytes(self):
        return self.config.mpb_bytes_per_core

    @property
    def total_bytes(self):
        return self.config.mpb_total_bytes

    def owner_of_offset(self, offset):
        """Which core's segment a chip-wide MPB offset falls in."""
        if not 0 <= offset < self.total_bytes:
            raise ValueError("MPB offset %r out of range" % offset)
        return offset // self.segment_bytes

    def access_cycles(self, requester, offset, kind, size=4):
        """Cycle cost for ``requester`` touching the MPB at ``offset``."""
        owner = self.owner_of_offset(offset)
        hops = self.mesh.hops(requester, owner)
        hop_part = hops * self.config.mesh_cycles_per_hop
        cost = self.config.mpb_base_cycles + hop_part
        if kind == "read":
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        self.stats.bytes_moved += size
        if self.attribution is not None:
            cells = self._attr_cells.get(requester)
            if cells is None:
                cells = self._attr_cells[requester] = (
                    self.attribution.cell(requester, "mesh_hop"),
                    self.attribution.cell(requester, "mpb"))
            cells[0][0] += hop_part
            cells[1][0] += cost - hop_part
        if self.record_owner_traffic:
            cell = self._owner_cell(owner, requester)
            cell[0 if kind == "read" else 1] += 1
            cell[2] += size
        return cost

    def bulk_transfer_cycles(self, requester, offset, nbytes):
        """Bulk copy cost: one fixed round trip plus pipelined words
        (Figure 6.2's 'transfers to and from the MPB may be done in
        bulk copy ... further improving performance')."""
        owner = self.owner_of_offset(offset)
        hops = self.mesh.hops(requester, owner)
        hop_part = hops * self.config.mesh_cycles_per_hop
        words = max((nbytes + 3) // 4, 1)
        cost = (self.config.mpb_base_cycles + hop_part
                + words)  # one cycle per pipelined word
        self.stats.bytes_moved += nbytes
        if self.attribution is not None:
            cells = self._attr_cells.get(requester)
            if cells is None:
                cells = self._attr_cells[requester] = (
                    self.attribution.cell(requester, "mesh_hop"),
                    self.attribution.cell(requester, "mpb"))
            cells[0][0] += hop_part
            cells[1][0] += cost - hop_part
        if self.record_owner_traffic:
            cell = self._owner_cell(owner, requester)
            cell[1] += 1
            cell[2] += nbytes
        return cost
