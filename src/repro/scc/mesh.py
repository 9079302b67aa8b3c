"""The SCC's 6x4 tile mesh with XY (dimension-ordered) routing.

Core numbering follows the SCC convention: two cores per tile, tile
``t = core // 2`` at coordinates ``(t % columns, t // columns)``.
The four DDR3 memory controllers sit at the mesh edges (Figure 5.1);
each serves the quadrant of tiles nearest to it, so "tile locality
impacts memory access time relative to each memory controller".
"""


class Mesh:
    """Geometry and routing-distance model.

    When ``record_traffic`` is enabled (it is opt-in: one lock per
    recorded route), every priced route increments per-link counters,
    which the chip publishes as the ``scc_mesh_link_traffic`` and
    ``scc_mesh_segment_traffic`` series (the ``--bottlenecks`` mesh
    heatmap).
    """

    def __init__(self, config):
        self.config = config
        self.record_traffic = False
        self.link_traffic = {}
        # per-link traffic split by address segment ("shared"/"mpb"),
        # keyed (link, segment); only populated for routes whose
        # pricing site passes a segment label
        self.segment_traffic = {}
        self._traffic_lock = None
        # messages lost to injected link faults (repro.faults); the
        # increment is GIL-atomic like the other counters
        self.drops = 0
        # retransmissions issued by the recovery layer's send retry
        self.retries = 0

    def record_drop(self):
        """Count one injected message drop (the access pays a full
        retransmission; the mesh only keeps the tally)."""
        self.drops += 1

    def record_retry(self):
        """Count one recovery-layer retransmission of a dropped
        RCCE_send message (repro.recovery.retry)."""
        self.retries += 1

    def enable_traffic_recording(self):
        import threading
        self.record_traffic = True
        if self._traffic_lock is None:
            self._traffic_lock = threading.Lock()

    def record_route(self, from_coords, to_coords, segment=None):
        """Count each XY link between two tile coordinates; when the
        pricing site labels the route with its address ``segment``,
        the per-segment split feeds the chip report's heatmap."""
        if not self.record_traffic:
            return
        path = self._coords_route(from_coords, to_coords)
        with self._traffic_lock:
            for link in zip(path, path[1:]):
                self.link_traffic[link] = \
                    self.link_traffic.get(link, 0) + 1
                if segment is not None:
                    key = (link, segment)
                    self.segment_traffic[key] = \
                        self.segment_traffic.get(key, 0) + 1

    def _coords_route(self, from_coords, to_coords):
        ax, ay = from_coords
        bx, by = to_coords
        path = [(ax, ay)]
        x, y = ax, ay
        step_x = 1 if bx > ax else -1
        while x != bx:
            x += step_x
            path.append((x, y))
        step_y = 1 if by > ay else -1
        while y != by:
            y += step_y
            path.append((x, y))
        return path

    # -- coordinates ------------------------------------------------------------

    def tile_of(self, core):
        self._check_core(core)
        return core // self.config.cores_per_tile

    def coords_of(self, core):
        tile = self.tile_of(core)
        return (tile % self.config.mesh_columns,
                tile // self.config.mesh_columns)

    def _check_core(self, core):
        if not 0 <= core < self.config.num_cores:
            raise ValueError("core %r out of range 0..%d"
                             % (core, self.config.num_cores - 1))

    # -- routing ----------------------------------------------------------------

    def hops(self, core_a, core_b):
        """Manhattan distance between two cores' tiles (XY routing)."""
        ax, ay = self.coords_of(core_a)
        bx, by = self.coords_of(core_b)
        return abs(ax - bx) + abs(ay - by)

    def route(self, core_a, core_b):
        """The (x, y) tile coordinates along the XY route, inclusive."""
        return self._coords_route(self.coords_of(core_a),
                                  self.coords_of(core_b))

    # -- memory controllers -------------------------------------------------------

    def controller_coords(self, controller):
        """Controllers at the left/right edges, rows 0 and rows-1."""
        count = self.config.num_memory_controllers
        if not 0 <= controller < count:
            raise ValueError("controller %r out of range" % controller)
        last_col = self.config.mesh_columns - 1
        last_row = self.config.mesh_rows - 1
        corners = [(0, 0), (last_col, 0), (0, last_row),
                   (last_col, last_row)]
        return corners[controller % 4]

    def controller_of(self, core):
        """The nearest controller (ties to the lower index) — the SCC's
        default quadrant mapping."""
        cx, cy = self.coords_of(core)
        best = 0
        best_distance = None
        for controller in range(self.config.num_memory_controllers):
            mx, my = self.controller_coords(controller)
            distance = abs(cx - mx) + abs(cy - my)
            if best_distance is None or distance < best_distance:
                best = controller
                best_distance = distance
        return best

    def hops_to_controller(self, core, controller=None):
        if controller is None:
            controller = self.controller_of(core)
        cx, cy = self.coords_of(core)
        mx, my = self.controller_coords(controller)
        return abs(cx - mx) + abs(cy - my)

    def cores_per_controller(self, active_cores=None):
        """How many (active) cores map to each controller."""
        if active_cores is None:
            active_cores = range(self.config.num_cores)
        counts = {c: 0 for c in range(self.config.num_memory_controllers)}
        for core in active_cores:
            counts[self.controller_of(core)] += 1
        return counts
