"""Access tracing of simulated runs: variable registration and
per-instance sharing as the race detector's VariableMap records them
(the one observer of simulated loads and stores; ``repro.core.dynamic``
reads its sharing set)."""

from repro.race.shadow import VariableMap


def _access(variables, tid, addr):
    """What the detector does with one simulated load or store."""
    extent = variables.resolve(addr)
    if extent is not None:
        extent.touch(tid)


class TestRegistration:
    def test_resolve_within_extent(self):
        variables = VariableMap()
        variables.register("arr", 0x100, 32, "global")
        assert variables.resolve(0x100).name == "arr"
        assert variables.resolve(0x11F).name == "arr"
        assert variables.resolve(0x120) is None

    def test_resolve_between_extents(self):
        variables = VariableMap()
        variables.register("a", 0x100, 8, "global")
        variables.register("b", 0x200, 8, "global")
        assert variables.resolve(0x150) is None
        assert variables.resolve(0x204).name == "b"

    def test_reused_stack_slot_retires_old_instance(self):
        variables = VariableMap()
        first = variables.register("x", 0x100, 4, "local", "f")
        _access(variables, 1, 0x100)
        second = variables.register("x", 0x100, 4, "local", "f")
        assert variables.resolve(0x100) is second
        assert second is not first
        # the retired instance's accessor does not carry over
        assert (first.accessor, second.accessor) == (1, None)

    def test_out_of_order_registration(self):
        variables = VariableMap()
        variables.register("late", 0x300, 4, "global")
        variables.register("early", 0x100, 4, "global")
        assert variables.resolve(0x100).name == "early"
        assert variables.resolve(0x300).name == "late"


class TestSharingDetection:
    def test_two_threads_one_instance_is_shared(self):
        variables = VariableMap()
        variables.register("g", 0x100, 4, "global")
        _access(variables, 1, 0x100)
        _access(variables, 2, 0x100)
        assert variables.shared_keys() == {(None, "g")}

    def test_one_thread_not_shared(self):
        variables = VariableMap()
        extent = variables.register("g", 0x100, 4, "global")
        _access(variables, 1, 0x100)
        _access(variables, 1, 0x100)
        assert variables.shared_keys() == set()
        assert extent.accessor == 1

    def test_per_instance_semantics(self):
        """Two threads touching their OWN instances of a reused stack
        slot is not sharing."""
        variables = VariableMap()
        first = variables.register("x", 0x100, 4, "local", "tf")
        _access(variables, 1, 0x100)
        # next frame
        second = variables.register("x", 0x100, 4, "local", "tf")
        _access(variables, 2, 0x100)
        assert variables.shared_keys() == set()
        assert (first.accessor, second.accessor) == (1, 2)

    def test_shared_retired_instance_still_counts(self):
        variables = VariableMap()
        variables.register("x", 0x100, 4, "local", "f")
        _access(variables, 1, 0x100)
        _access(variables, 2, 0x100)
        variables.register("x", 0x100, 4, "local", "f")
        assert variables.shared_keys() == {("f", "x")}
