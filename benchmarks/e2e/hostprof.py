"""Host-time attribution for the traced run.

``ThreadProfiler`` profiles every host thread with its own
``cProfile.Profile(time.thread_time)``.  ``run_rcce`` starts its core
threads inside the call, so the hook is installed with
``threading.setprofile`` and each new thread enables its own profiler
on its first event.  A wall-clock profiler would charge every thread
for the time it spends waiting on the interpreter lock.

``bucket_self_times`` folds the profiles into the layer buckets named
by ``bucket_of_file``.  Self time of a function outside ``repro``
(a C builtin, or standard-library Python such as ``copy.deepcopy``) is
charged to the bucket of the function that called it, resolved
transitively through chains of non-``repro`` callers.
"""

import cProfile
import os
import threading
import time

# sim/ modules that make up the interpreter's dispatch loop
_DISPATCH = {"compile.py", "interpreter.py", "values.py", "machine.py"}
_SIM = {"builtins.py": "sim.builtins", "pthread_rt.py": "sim.pthread_rt"}
_SCC = {"cache.py": "scc.cache", "mesh.py": "scc.mesh",
        "dram.py": "scc.dram", "mpb.py": "scc.mpb"}
_PACKAGES = {"rcce", "cfront", "core", "ir", "static", "recovery",
             "race", "obs"}

BUCKETS = ("sim.dispatch", "sim.builtins", "sim.pthread_rt",
           "sim.runner", "scc.cache", "scc.mesh", "scc.dram", "scc.mpb",
           "scc.chip", "rcce", "cfront", "core", "ir", "static",
           "faults", "recovery", "race", "obs", "repro.other",
           "host.other")
HOST_OTHER = "host.other"


def bucket_of_file(filename, repro_root):
    """The layer bucket of a source file, or None outside ``repro``."""
    rel = os.path.relpath(os.path.realpath(filename), repro_root)
    if rel.startswith(".."):
        return None
    head, _, module = rel.replace(os.sep, "/").partition("/")
    if head == "sim":
        if module in _DISPATCH:
            return "sim.dispatch"
        return _SIM.get(module, "sim.runner")
    if head == "scc":
        return _SCC.get(module, "scc.chip")
    if head in _PACKAGES:
        return head
    if head == "faults.py":
        return "faults"
    return "repro.other"


class ThreadProfiler:
    """CPU-time profiles of the main thread and of every thread
    started while the profiler is active."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []
        self._main = cProfile.Profile(time.thread_time)

    def _thread_hook(self, frame, event, arg):
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self._threads.append(profile)
        profile.enable()

    def start(self):
        threading.setprofile(self._thread_hook)
        self._main.enable()

    def stop(self):
        self._main.disable()
        threading.setprofile(None)

    def drain_threads(self):
        """``getstats()`` of every thread profiled since the last
        drain.  Call only when those threads have finished."""
        with self._lock:
            profiles, self._threads = self._threads, []
        return [profile.getstats() for profile in profiles]

    def main_stats(self):
        return self._main.getstats()


class BucketTable:
    """Maps code objects to buckets, caching per file."""

    def __init__(self, repro_root):
        self.repro_root = repro_root
        self._files = {}

    def own(self, code):
        if isinstance(code, str):           # a C builtin
            return None
        filename = code.co_filename
        if filename not in self._files:
            self._files[filename] = bucket_of_file(filename,
                                                   self.repro_root)
        return self._files[filename]


def bucket_self_times(stats, table, totals):
    """Add one thread's self time per bucket into ``totals``."""
    edges_in = {}
    for caller in stats:
        for sub in caller.calls or ():
            edges_in.setdefault(sub.code, []).append(
                (sub.totaltime, caller.code, sub.inlinetime))
    resolved = {entry.code: table.own(entry.code) for entry in stats
                if table.own(entry.code) is not None}
    # a non-repro function takes the bucket of its heaviest caller
    # whose bucket is known; repeat until nothing changes
    pending = [entry.code for entry in stats
               if entry.code not in resolved]
    changed = True
    while pending and changed:
        changed = False
        still = []
        for code in pending:
            known = [(weight, resolved[caller])
                     for weight, caller, _ in edges_in.get(code, ())
                     if caller in resolved]
            if known:
                resolved[code] = max(known)[1]
                changed = True
            else:
                still.append(code)
        pending = still
    for entry in stats:
        if table.own(entry.code) is not None:
            totals[resolved[entry.code]] += entry.inlinetime
            continue
        # charge each call edge to its caller's bucket; the part no
        # recorded caller accounts for (a thread's root frame) goes to
        # the function's own resolved bucket
        charged = 0.0
        for _, caller, inline in edges_in.get(entry.code, ()):
            totals[resolved.get(caller, HOST_OTHER)] += inline
            charged += inline
        rest = entry.inlinetime - charged
        if rest > 0:
            totals[resolved.get(entry.code, HOST_OTHER)] += rest
    return totals


def flatten_spans(profiler):
    """Turn a ``PipelineProfiler`` span forest into flat records
    ``{"id", "parent", "request", "name", "start", "end", "stats"}``,
    times in seconds from the profiler's epoch.  Each top-level span
    carries its request id in ``stats["request"]``."""
    records = []

    def walk(span, parent, request):
        span_id = len(records)
        end = span.end if span.end is not None else span.start
        records.append({
            "id": span_id, "parent": parent, "request": request,
            "name": span.name, "start": span.start - profiler.epoch,
            "end": end - profiler.epoch,
            "stats": {key: value for key, value in span.stats.items()
                      if isinstance(value, (int, float, str))},
        })
        for child in span.children:
            walk(child, span_id, request)

    for span in profiler.spans:
        walk(span, None, span.stats["request"])
    return records
