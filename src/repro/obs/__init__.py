"""Unified instrumentation: metrics registry, pipeline profiler, and
cycle attribution.

Three cooperating pieces, all zero-dependency and all no-ops until a
caller opts in:

* :class:`MetricsRegistry` (``repro.obs.metrics``) — the one counter
  surface: every chip component, the RCCE runtime and the runners
  register a collector, read only when a snapshot is taken.  A chip,
  and with it its registry, serves one run, so nothing is reset.
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

from repro.obs.metrics import Histogram, MetricsRegistry, series_value
from repro.obs.profile import PipelineProfiler, Span

__all__ = [
    "AttributionEngine",
    "AttributionReport",
    "CLASSES",
    "ConservationError",
    "CriticalPathReport",
    "analyze_critical_path",
    "Histogram",
    "MetricsRegistry",
    "series_value",
    "PipelineProfiler",
    "Span",
]
