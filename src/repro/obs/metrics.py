"""The metrics registry: one counter surface fed by collectors.

Every subsystem of the simulator publishes into one
:class:`MetricsRegistry` instead of scattering ad-hoc private counters,
and it does so one way: it registers a *collector*.  The chip's
collector reports its component statistics (caches, memory
controllers, MPB, mesh link traffic, power), the RCCE world's its
synchronization and communication counts and its barrier-wait
:class:`Histogram`, and the runners' their interpreter progress.

Design constraints, in order:

* **near-zero overhead on the hot path** — components keep their cheap
  ``__slots__`` accumulator objects; the registry pulls from them only
  at snapshot time, so pricing a memory access costs the same whether
  or not anyone is watching;
* **one run per registry** — a chip, and with it its registry,
  serves one run (the runners refuse a second), so no count needs a
  reset and a snapshot holds exactly one run;
* **machine-readable** — :meth:`MetricsRegistry.snapshot` is a plain
  JSON-safe dict, the ``metrics`` section of the ``--report``
  document.
"""

import math
import threading

# Histograms keep at most this many raw samples (a ring: newer samples
# overwrite the oldest) so a long run cannot grow without bound.
HISTOGRAM_CAPACITY = 8192


class Histogram:
    """A distribution: exact count/sum/min/max plus percentiles over a
    bounded ring of raw samples.  A collector publishes its
    :meth:`summary` as a ``("histogram", name, labels, summary)``
    sample."""

    __slots__ = ("count", "total", "min", "max", "samples", "_next")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.samples = []
        self._next = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < HISTOGRAM_CAPACITY:
            self.samples.append(value)
        else:
            self.samples[self._next] = value
            self._next = (self._next + 1) % HISTOGRAM_CAPACITY

    def percentile(self, fraction):
        """The ``fraction`` (0..1) percentile over the retained
        samples (nearest-rank: the smallest sample with at least
        ``fraction`` of the data at or below it)."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = math.ceil(fraction * len(ordered)) - 1
        return ordered[min(max(rank, 0), len(ordered) - 1)]

    def summary(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else None,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """The single place every subsystem publishes measurements.

    A component registers a collector, ``register_collector(name,
    collect)``: ``collect()`` returns ``(kind, name, labels,
    value)`` samples and is only called at snapshot time; ``kind`` is
    ``"counter"``, ``"gauge"`` or ``"histogram"`` (whose value is a
    :meth:`Histogram.summary`).
    """

    def __init__(self):
        self._collectors = {}
        self._lock = threading.Lock()

    def register_collector(self, name, collect):
        """Register (or replace) a pull-style source.  ``collect()``
        yields ``(kind, metric_name, labels_dict, value)`` samples."""
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(self, name):
        with self._lock:
            self._collectors.pop(name, None)

    def snapshot(self):
        """A JSON-safe dict with one row per sample, in collector
        registration order: ``{"labels", "value"}`` for counters and
        gauges, ``{"labels", "summary"}`` for histograms."""
        result = {"counters": {}, "gauges": {}, "histograms": {}}
        section = {"counter": result["counters"],
                   "gauge": result["gauges"],
                   "histogram": result["histograms"]}
        with self._lock:
            collectors = list(self._collectors.values())
        for collect in collectors:
            for kind, name, labels, value in collect():
                row = {"labels": dict(labels)}
                row["summary" if kind == "histogram" else "value"] = value
                section[kind].setdefault(name, []).append(row)
        return result


def series_value(snapshot_section, name, default=0, **labels):
    """Look one series up in a snapshot section (helper for report
    code consuming :meth:`MetricsRegistry.snapshot`)."""
    for row in snapshot_section.get(name, ()):
        if row["labels"] == labels:
            return row["value"]
    return default
