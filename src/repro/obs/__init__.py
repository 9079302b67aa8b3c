"""Unified instrumentation: metrics registry, pipeline profiler, and
cycle attribution.

Three cooperating pieces, all zero-dependency and all no-ops until a
caller opts in:

* :class:`MetricsRegistry` (``repro.obs.metrics``) — labeled counters,
  gauges, and histograms that every chip component, the RCCE runtime,
  and the runners publish into; one ``reset()`` restores a clean slate
  between runs.
* :class:`PipelineProfiler` (``repro.obs.profile``) — wall-time spans
  around the five framework stages and each IR pass, with
  stage-specific statistics.
* :class:`AttributionEngine` (``repro.obs.attribution``) — exhaustive
  per-core cycle accounting (every charged cycle lands in exactly one
  class) feeding the critical-path analyzer in
  ``repro.obs.critpath`` and the ``repro run --bottlenecks`` report.

The CLI's ``--report`` document, a run's one machine-readable output,
carries registry snapshots, profiler spans and attribution reports.
"""

from repro.obs.attribution import (
    AttributionEngine,
    AttributionReport,
    CLASSES,
    ConservationError,
)
from repro.obs.critpath import CriticalPathReport, analyze_critical_path

from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    render_snapshot_text,
    series_value,
)
from repro.obs.profile import PipelineProfiler, Span

__all__ = [
    "AttributionEngine",
    "AttributionReport",
    "CLASSES",
    "ConservationError",
    "CriticalPathReport",
    "analyze_critical_path",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "render_snapshot_text",
    "series_value",
    "PipelineProfiler",
    "Span",
]
