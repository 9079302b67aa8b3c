"""Event tracer: ring buffer, Chrome trace-event export, and the
end-to-end trace schema of a tiny RCCE run."""

import json

import pytest

from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.obs.tracer import NULL_EVENTS, EventTracer
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig, Table61Config
from repro.sim.interpreter import Interpreter
from repro.sim.runner import run_rcce
from repro.sim.values import Pointer

# Four threads contending on one mutex: after translation this
# exercises every traced subsystem — caches, mesh, MPB allocation,
# RCCE locks, and barriers.
MUTEX_SRC = r"""
#include <pthread.h>
#include <stdio.h>

#define NTHREADS 4

pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
int counter = 0;

void *worker(void *arg) {
    int i;
    for (i = 0; i < 8; i = i + 1) {
        pthread_mutex_lock(&lock);
        counter = counter + 1;
        pthread_mutex_unlock(&lock);
    }
    return 0;
}

int main() {
    pthread_t threads[NTHREADS];
    int i;
    for (i = 0; i < NTHREADS; i = i + 1) {
        pthread_create(&threads[i], 0, worker, 0);
    }
    for (i = 0; i < NTHREADS; i = i + 1) {
        pthread_join(threads[i], 0);
    }
    printf("counter = %d\n", counter);
    return 0;
}
"""


class TestRingBuffer:
    def test_capacity_drops_oldest(self):
        tracer = EventTracer(capacity=4)
        for index in range(6):
            tracer.instant(0, index, "e%d" % index)
        assert len(tracer) == 4
        assert tracer.dropped == 2
        names = [event[5] for event in tracer.events]
        assert names == ["e2", "e3", "e4", "e5"]

    def test_clear(self):
        tracer = EventTracer(capacity=4)
        tracer.instant(0, 0, "e")
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_core_tracks(self):
        tracer = EventTracer()
        tracer.instant(0, 0, "a", pid=0)
        tracer.instant(3, 10, "b", pid=1)
        assert tracer.core_tracks() == {(0, 0), (1, 3)}


class TestChromeExport:
    def test_phases_and_time_conversion(self):
        tracer = EventTracer()
        tracer.set_process(0, "chip")
        tracer.set_thread(0, 2, "core 2")
        tracer.instant(2, 1600, "cache_miss", category="cache",
                       args={"level": "L2"})
        tracer.complete(2, 800, 800, "barrier", category="sync")
        doc = tracer.to_chrome(cycles_per_us=800.0)
        by_name = {event["name"]: event for event in doc["traceEvents"]}
        assert by_name["process_name"]["args"]["name"] == "chip"
        assert by_name["thread_name"]["args"]["name"] == "core 2"
        instant = by_name["cache_miss"]
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert instant["ts"] == pytest.approx(2.0)  # 1600 cyc @ 800 MHz
        span = by_name["barrier"]
        assert span["ph"] == "X"
        assert span["dur"] == pytest.approx(1.0)

    def test_disabled_tracer_is_noop(self):
        assert NULL_EVENTS.enabled is False
        NULL_EVENTS.instant(0, 0, "e")
        NULL_EVENTS.complete(0, 0, 1, "e")
        NULL_EVENTS.counter(0, 0, "c", {"v": 1})
        assert len(NULL_EVENTS) == 0


class TestRCCERunTrace:
    """Golden schema test: trace a tiny translated RCCE run and check
    the Chrome JSON that falls out."""

    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        translated = TranslationFramework().translate(MUTEX_SRC)
        tracer = EventTracer()
        chip = SCCChip(Table61Config())
        chip.attach_events(tracer, pid=0, name="rcce x4 cores")
        run_rcce(translated.unit, 4, chip.config, chip)
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        tracer.write_chrome(str(path), chip.config.core_freq_mhz)
        with open(path) as handle:
            return json.load(handle)

    def test_document_shape(self, trace_doc):
        assert set(trace_doc) == {"traceEvents", "displayTimeUnit",
                                  "otherData"}
        assert trace_doc["otherData"]["dropped_events"] == 0

    def test_at_least_two_core_tracks(self, trace_doc):
        tracks = {(event["pid"], event["tid"])
                  for event in trace_doc["traceEvents"]
                  if event["ph"] != "M"}
        assert len(tracks) >= 2

    def test_expected_event_categories(self, trace_doc):
        categories = {event.get("cat")
                      for event in trace_doc["traceEvents"]}
        assert {"cache", "mesh", "sync", "mem"} <= categories

    def test_cache_mesh_lock_events_present(self, trace_doc):
        names = {event["name"] for event in trace_doc["traceEvents"]}
        assert {"cache_miss", "mesh_route", "lock_acquire",
                "barrier", "mpb_alloc"} <= names

    def test_every_core_named(self, trace_doc):
        thread_names = {event["tid"]: event["args"]["name"]
                        for event in trace_doc["traceEvents"]
                        if event["ph"] == "M"
                        and event["name"] == "thread_name"}
        assert thread_names == {0: "core 0", 1: "core 1",
                                2: "core 2", 3: "core 3"}

    def test_timestamps_non_negative_and_finite(self, trace_doc):
        for event in trace_doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_lock_events_carry_register_args(self, trace_doc):
        locks = [event for event in trace_doc["traceEvents"]
                 if event["name"] == "lock_acquire"]
        assert locks
        for event in locks:
            assert "register" in event["args"]


class TestEventSinkBinding:
    """The shared-DRAM fast-path entry binds the event sink when it is
    built, so attaching and detaching must invalidate site caches that
    are already filled."""

    def test_shared_routes_follow_attach_and_detach(self):
        chip = SCCChip(SCCConfig())
        interp = Interpreter(
            parse_program("int peek(int *p) { return *p; }"), chip)
        shared = Pointer(chip.address_space.alloc_shared(64).base)
        interp.call_function("peek", [shared])
        assert interp._site_cache  # filled while nothing was attached
        tracer = EventTracer()
        chip.attach_events(tracer)
        interp.call_function("peek", [shared])
        assert len(tracer.events_named("mesh_route")) == 1
        chip.detach_events()
        interp.call_function("peek", [shared])
        assert len(tracer.events_named("mesh_route")) == 1
