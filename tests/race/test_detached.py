"""The race recorder is off the load/store path unless it is attached.

``Interpreter._fill_site`` binds the recorder into a site's inline-cache
entry, and ``Interpreter._fill_scalar`` into the core's scalar entry,
only when a detector is attached, so the generated access code has no
race branch, and a run without a detector executes the chip's entries
themselves.
"""

from repro.cfront.frontend import parse_program
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim import compile as sim_compile
from repro.sim.interpreter import Interpreter
from repro.sim.machine import Memory

SOURCE = """
int g;
int a[4];
int main(void) {
    int x = 1;
    int *p = &x;
    g = x + 2;
    a[1] = g;
    *p = a[1];
    return *p;
}
"""


class _Recorder:
    """The slice of RaceDetector the interpreter calls."""

    def __init__(self):
        self.calls = []

    def register(self, *args):
        pass

    def record(self, interp, addr, kind, cycles=None):
        self.calls.append((addr, kind, cycles, interp.cycles))


def _interpreter(race=None):
    chip = SCCChip(SCCConfig())
    chip.race = race
    return Interpreter(parse_program(SOURCE), chip, 0, Memory())


class TestGeneratedCode:
    def test_load_and_store_blocks_name_no_race_hook(self):
        for template in (sim_compile._LOAD, sim_compile._STORE,
                         sim_compile._STORE_DYN, sim_compile._ARRAY_INIT,
                         sim_compile._SCALAR_LOAD,
                         sim_compile._SCALAR_STORE):
            assert "_race" not in template.text

    def test_no_generated_shape_records_an_access(self):
        interp = _interpreter()
        assert interp.call_function("main") == 3
        sources = [make.source for make in sim_compile._SHAPES.values()]
        assert sources
        assert not [source for source in sources
                    if "_race.record" in source]


class TestFillSite:
    def test_detector_free_entry_is_the_chips_own(self):
        interp = _interpreter()
        entry = (0, 1 << 64, lambda addr, kind: 7)
        interp.chip.access_fastpath = lambda core, addr: entry
        assert interp._fill_site(5, 64) is entry
        assert interp._site_cache[5] is entry

    def test_attached_entry_records_at_the_post_charge_clock(self):
        recorder = _Recorder()
        interp = _interpreter(recorder)
        addr = interp._global_addr["g"]
        plain = _interpreter()
        for kind in ("write", "read", "read"):
            recorder.calls.clear()
            entry = interp._fill_site(1, addr)
            before = interp.cycles
            # the generated access: I.cycles += e[2](addr, kind)
            interp.cycles += entry[2](addr, kind)
            plain.cycles += plain._fill_site(1, addr)[2](addr, kind)
            assert interp.cycles == plain.cycles
            assert recorder.calls == [(addr, kind, interp.cycles, before)]

    def test_detector_free_scalar_entry_is_the_chips_own(self):
        interp = _interpreter()

        def price(addr, kind):
            return 7
        interp.chip.access_fastpath = lambda core, addr: (0, 1 << 64,
                                                          price, None)
        assert interp._price_scalar(64, "read") == 7
        assert interp._price_scalar is price

    def test_attached_scalar_entry_records_at_the_post_charge_clock(self):
        recorder = _Recorder()
        interp = _interpreter(recorder)
        plain = _interpreter()
        addr = interp._global_addr["g"]
        for kind in ("write", "read", "read"):
            recorder.calls.clear()
            before = interp.cycles
            # the generated access: I.cycles += I._price_scalar(...)
            interp.cycles += interp._price_scalar(addr, kind)
            plain.cycles += plain._price_scalar(addr, kind)
            assert interp.cycles == plain.cycles
            assert recorder.calls == [(addr, kind, interp.cycles, before)]

    def test_attached_run_records_every_access_once(self):
        recorder = _Recorder()
        interp = _interpreter(recorder)
        plain = _interpreter()
        assert interp.call_function("main") == \
            plain.call_function("main") == 3
        assert interp.cycles == plain.cycles
        accesses = plain.chip.cores[0].accesses
        assert len(recorder.calls) == sum(accesses.values())
