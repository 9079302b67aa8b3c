#!/usr/bin/env python
"""Capture a Chrome trace, a metrics snapshot, and a pipeline profile.

Walks the full observability surface on a small mutex-counter program:
1. translate — with a PipelineProfiler timing every stage,
2. simulate  — with an EventTracer attached to the chip,
3. export    — Chrome trace JSON (open in chrome://tracing or
   https://ui.perfetto.dev), metrics JSON, and a text dump.

Run: python examples/trace_capture.py
"""

import json
import os
import tempfile

from repro import TranslationFramework
from repro.obs import EventTracer, PipelineProfiler, render_snapshot_text
from repro.scc.chip import SCCChip
from repro.scc.config import Table61Config
from repro.sim import run_rcce

SOURCE = r'''
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
'''


def main():
    # 1. translate, profiled: every stage and IR pass gets a span
    profiler = PipelineProfiler()
    framework = TranslationFramework(profiler=profiler)
    translated = framework.translate(SOURCE)
    print(profiler.render())
    print()

    # 2. simulate with event tracing attached to the chip
    tracer = EventTracer()
    chip = SCCChip(Table61Config())
    chip.attach_events(tracer, pid=0, name="rcce x4 cores")
    result = run_rcce(translated.unit, 4, chip.config, chip)
    print("program output:", result.stdout().strip().splitlines()[0])
    print("simulated cycles:", result.cycles)
    print()

    # 3. export
    outdir = tempfile.mkdtemp(prefix="repro-trace-")
    trace_path = os.path.join(outdir, "trace.json")
    metrics_path = os.path.join(outdir, "metrics.json")
    # trace microseconds equal simulated time at the core frequency
    events = tracer.write_chrome(trace_path, chip.config.core_freq_mhz)
    with open(metrics_path, "w") as handle:
        json.dump(result.metrics, handle, indent=2, sort_keys=True)
    print("trace events:", events, "->", trace_path)
    print("core tracks:", sorted(tid for _pid, tid
                                 in tracer.core_tracks()))
    with open(trace_path) as handle:
        json.load(handle)  # the file is valid JSON
    print()
    print("metrics snapshot:")
    print(render_snapshot_text(result.metrics))


if __name__ == "__main__":
    main()
