"""The metrics registry: counters, gauges, and histograms with labels.

Every subsystem of the simulator publishes into one
:class:`MetricsRegistry` instead of scattering ad-hoc private counters:
the chip registers a *collector* for its component statistics (caches,
memory controllers, MPB, mesh link traffic, power), the RCCE world
registers one for synchronization and communication counts, and the
runners register one for interpreter progress.  Low-frequency events
(allocations, spills) use direct instruments.

Design constraints, in order:

* **near-zero overhead on the hot path** — components keep their cheap
  ``__slots__`` accumulator objects; the registry pulls from them only
  at snapshot time via collectors, so pricing a memory access costs the
  same whether or not anyone is watching;
* **one reset** — :meth:`MetricsRegistry.reset` zeroes every direct
  instrument *and* invokes every collector's reset hook, so a reused
  chip does not bleed statistics between runs;
* **machine-readable exports** — :meth:`MetricsRegistry.snapshot` is a
  plain JSON-safe dict, :meth:`render_text` a one-line-per-series text
  dump.

Instruments are deliberately not locked: increments race benignly under
the GIL exactly like the pre-existing component counters, and metrics
tolerate last-writer-wins noise.
"""

import json
import math
import threading

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Histograms keep at most this many raw samples (a ring: newer samples
# overwrite the oldest) so a long run cannot grow without bound.
HISTOGRAM_CAPACITY = 8192


class MetricsError(Exception):
    """Inconsistent registry use (name reused with a different kind or
    label set)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = COUNTER

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("value",)
    kind = GAUGE

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def reset(self):
        self.value = 0


class Histogram:
    """A distribution: exact count/sum/min/max plus percentiles over a
    bounded ring of raw samples."""

    __slots__ = ("count", "total", "min", "max", "samples", "_next")
    kind = HISTOGRAM

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

    def reset(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.samples = []
        self._next = 0


class Family:
    """All series of one metric name: either a single unlabeled
    instrument or one child instrument per label-value combination."""

    def __init__(self, name, kind, help_text="", label_names=()):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self._factory = {COUNTER: Counter, GAUGE: Gauge,
                         HISTOGRAM: Histogram}[kind]
        self._children = {}
        self._lock = threading.Lock()
        if not self.label_names:
            self._children[()] = self._factory()

    def labels(self, **labels):
        """The child instrument for one label-value combination.
        Callers on hot paths should cache the returned child."""
        key = tuple(labels.get(name) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            # validate only on the slow path: hot callers cache children
            if set(labels) != set(self.label_names):
                raise MetricsError(
                    "metric %r takes labels %r, got %r"
                    % (self.name, self.label_names, tuple(labels)))
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._factory()
        return child

    # unlabeled families act as their own single instrument
    def inc(self, amount=1):
        self._children[()].inc(amount)

    def dec(self, amount=1):
        self._children[()].dec(amount)

    def set(self, value):
        self._children[()].set(value)

    def observe(self, value):
        self._children[()].observe(value)

    def summary(self):
        return self._children[()].summary()

    def percentile(self, fraction):
        return self._children[()].percentile(fraction)

    @property
    def value(self):
        return self._children[()].value

    def series(self):
        """[(labels_dict, instrument)] for every child, sorted."""
        with self._lock:
            items = sorted(self._children.items(),
                           key=lambda item: tuple(map(str, item[0])))
        return [(dict(zip(self.label_names, key)), child)
                for key, child in items]

    def reset(self):
        with self._lock:
            for child in self._children.values():
                child.reset()


class MetricsRegistry:
    """The single place every subsystem publishes measurements.

    Two publishing styles:

    * **direct instruments** — ``registry.counter("x").inc()`` — for
      low-frequency events;
    * **collectors** — ``registry.register_collector(name, collect,
      reset)`` — for components that already keep cheap private
      accumulators; ``collect()`` returns ``(kind, name, labels,
      value)`` samples and is only called at snapshot time.
    """

    def __init__(self):
        self._families = {}
        self._collectors = {}
        self._lock = threading.Lock()

    # -- instrument creation ----------------------------------------------------

    def counter(self, name, help_text="", labels=()):
        return self._family(name, COUNTER, help_text, labels)

    def gauge(self, name, help_text="", labels=()):
        return self._family(name, GAUGE, help_text, labels)

    def histogram(self, name, help_text="", labels=()):
        return self._family(name, HISTOGRAM, help_text, labels)

    def _family(self, name, kind, help_text, labels):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(name, kind, help_text, labels)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise MetricsError(
                "metric %r already registered as a %s"
                % (name, family.kind))
        if family.label_names != tuple(labels):
            raise MetricsError(
                "metric %r already registered with labels %r"
                % (name, family.label_names))
        return family

    # -- collectors -------------------------------------------------------------

    def register_collector(self, name, collect, reset=None):
        """Register (or replace) a pull-style source.  ``collect()``
        yields ``(kind, metric_name, labels_dict, value)`` samples;
        ``reset()``, when given, zeroes the underlying accumulators."""
        with self._lock:
            self._collectors[name] = (collect, reset)

    def unregister_collector(self, name):
        with self._lock:
            self._collectors.pop(name, None)

    # -- lifecycle --------------------------------------------------------------

    def reset(self):
        """Zero every direct instrument and every collector's source —
        the counter-reset hygiene hook the runners call between runs."""
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors.values())
        for family in families:
            family.reset()
        for _collect, reset in collectors:
            if reset is not None:
                reset()

    # -- exports ----------------------------------------------------------------

    def snapshot(self):
        """A JSON-safe dict of every series currently non-trivial."""
        result = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors.values())
        section = {COUNTER: result["counters"], GAUGE: result["gauges"],
                   HISTOGRAM: result["histograms"]}
        for family in families:
            rows = []
            for labels, child in family.series():
                if family.kind == HISTOGRAM:
                    if child.count:
                        rows.append({"labels": labels,
                                     "summary": child.summary()})
                else:
                    rows.append({"labels": labels, "value": child.value})
            if rows:
                section[family.kind][family.name] = rows
        for collect, _reset in collectors:
            for kind, name, labels, value in collect():
                section[kind].setdefault(name, []).append(
                    {"labels": dict(labels), "value": value})
        return result

    def to_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_text(self):
        """One ``name{label=value,...} value`` line per series."""
        return render_snapshot_text(self.snapshot())


def render_snapshot_text(snapshot):
    """Render a :meth:`MetricsRegistry.snapshot` dict as one
    ``name{label=value,...} value`` line per series."""
    lines = []
    for section in ("counters", "gauges"):
        for name in sorted(snapshot.get(section, {})):
            for row in snapshot[section][name]:
                lines.append("%s%s %s" % (
                    name, _label_suffix(row["labels"]), row["value"]))
    for name in sorted(snapshot.get("histograms", {})):
        for row in snapshot["histograms"][name]:
            summary = row["summary"]
            lines.append(
                "%s%s count=%d sum=%s p50=%s p99=%s" % (
                    name, _label_suffix(row["labels"]),
                    summary["count"], summary["sum"],
                    summary["p50"], summary["p99"]))
    return "\n".join(lines)


def _label_suffix(labels):
    if not labels:
        return ""
    inner = ",".join("%s=%s" % (key, labels[key])
                     for key in sorted(labels))
    return "{%s}" % inner


def series_value(snapshot_section, name, default=0, **labels):
    """Look one series up in a snapshot section (helper for report
    code consuming :meth:`MetricsRegistry.snapshot`)."""
    for row in snapshot_section.get(name, ()):
        if row["labels"] == labels:
            return row["value"]
    return default


def sum_series(snapshot_section, name, default=0):
    """Total a family across all its label combinations (e.g. every
    ``check`` of ``static_checks_total``).  Returns ``default`` when
    the family has no series at all."""
    rows = snapshot_section.get(name, ())
    if not rows:
        return default
    return sum(row["value"] for row in rows)
