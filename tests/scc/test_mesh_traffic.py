"""NoC link-traffic recording tests."""

import pytest

from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.mesh import Mesh


class TestRecording:
    def test_disabled_by_default(self):
        chip = SCCChip(SCCConfig())
        shared = chip.address_space.alloc_shared(64)
        chip.access_cost(4, shared.base)
        assert chip.mesh.link_traffic == {}

    def test_shared_access_counts_links(self):
        chip = SCCChip(SCCConfig())
        chip.mesh.enable_traffic_recording()
        shared = chip.address_space.alloc_shared(64)
        chip.access_cost(4, shared.base)  # tile (2,0) -> controller 0
        total = sum(chip.mesh.link_traffic.values())
        assert total == chip.mesh.hops_to_controller(4)

    def test_mpb_access_counts_links(self):
        chip = SCCChip(SCCConfig())
        chip.mesh.enable_traffic_recording()
        mpb = chip.address_space.alloc_mpb(64)  # owned by core 0
        chip.access_cost(47, mpb.base, "write")
        assert sum(chip.mesh.link_traffic.values()) == \
            chip.mesh.hops(47, 0)

    def test_local_access_no_links(self):
        chip = SCCChip(SCCConfig())
        chip.mesh.enable_traffic_recording()
        mpb = chip.address_space.alloc_mpb(64)
        chip.access_cost(0, mpb.base, "write")  # same tile
        assert chip.mesh.link_traffic == {}

    def test_hot_links_sorted(self):
        """The chip publishes per-link traffic as the
        ``scc_mesh_link_traffic`` series; ranked by count, the busiest
        link leads."""
        chip = SCCChip(SCCConfig())
        chip.mesh.enable_traffic_recording()
        for _ in range(3):
            chip.mesh.record_route((0, 0), (2, 0))
        chip.mesh.record_route((0, 0), (1, 0))
        rows = chip.metrics.snapshot()["counters"]["scc_mesh_link_traffic"]
        hot = sorted(((row["labels"]["link"], row["value"])
                      for row in rows), key=lambda item: -item[1])
        assert hot == [("(0, 0)->(1, 0)", 4), ("(1, 0)->(2, 0)", 3)]

    def test_route_links_are_adjacent(self):
        mesh = Mesh(SCCConfig())
        mesh.enable_traffic_recording()
        mesh.record_route((0, 0), (3, 2))
        for (ax, ay), (bx, by) in mesh.link_traffic:
            assert abs(ax - bx) + abs(ay - by) == 1

    def test_concurrent_recording_is_consistent(self):
        import threading
        mesh = Mesh(SCCConfig())
        mesh.enable_traffic_recording()

        def hammer():
            for _ in range(200):
                mesh.record_route((0, 0), (5, 0))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(mesh.link_traffic.values()) == 4 * 200 * 5
