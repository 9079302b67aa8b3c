"""The pipeline profiler: wall-time spans around framework stages,
IR passes, and benchmark runs.

A :class:`PipelineProfiler` records a tree of named spans.  The pass
:class:`~repro.ir.passes.Driver` opens one span per pass when a
profiler is attached, and each analysis pass annotates its span with
stage-specific statistics (variables classified, points-to rounds to
fixpoint, partition bytes on/off-chip) via
``Pass.profile_stats``.  ``stage_summary()`` folds the pass spans into
the paper's five stages for the CLI's ``--profile`` report.
"""

import time


class Span:
    """One profiled region."""

    __slots__ = ("name", "start", "end", "stats", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.end = None
        self.stats = {}
        self.children = []

    @property
    def wall_seconds(self):
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self):
        entry = {"name": self.name, "wall_seconds": self.wall_seconds,
                 "stats": dict(self.stats)}
        if self.children:
            entry["children"] = [c.to_dict() for c in self.children]
        return entry

    def __repr__(self):
        return "Span(%s: %.6fs, %r)" % (self.name, self.wall_seconds,
                                        self.stats)


class _SpanContext:
    """Context manager for one span; re-entrant safe via the stack."""

    __slots__ = ("profiler", "span")

    def __init__(self, profiler, span):
        self.profiler = profiler
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.profiler._close(self.span)
        return False


class PipelineProfiler:
    """Collects a forest of wall-time spans.  Call sites that may run
    unprofiled hold ``profiler=None`` and skip the span."""

    def __init__(self, clock=None):
        self.clock = clock or time.perf_counter
        self.spans = []      # top-level spans, in order
        self._stack = []
        self.epoch = self.clock()

    # -- recording --------------------------------------------------------------

    def span(self, name, **stats):
        """Open a span: ``with profiler.span("stage1-..."): ...``"""
        span = Span(name, self.clock())
        span.stats.update(stats)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span):
        span.end = self.clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def annotate(self, **stats):
        """Attach statistics to the innermost open span."""
        if self._stack:
            self._stack[-1].stats.update(stats)

    def reset(self):
        self.spans = []
        self._stack = []
        self.epoch = self.clock()

    # -- reports ----------------------------------------------------------------

    def report(self):
        """The span forest as JSON-safe dicts, with start offsets
        relative to the profiler's epoch."""
        entries = []
        for span in self.spans:
            entry = span.to_dict()
            entry["start_offset_seconds"] = span.start - self.epoch
            entries.append(entry)
        return entries

    def stage_summary(self):
        """Aggregate top-level pass spans into the paper's five stages.

        A span named ``stage3-alias-pointer-analysis`` lands in stage
        ``stage3``; non-stage spans keep their own name.  Returns
        ordered ``(stage, wall_seconds, start_offset, stats)`` rows.
        """
        rows = {}
        order = []
        for span in self.spans:
            stage = span.name
            if span.name.startswith("stage"):
                stage = span.name.split("-", 1)[0]
            if stage not in rows:
                rows[stage] = {"stage": stage, "wall_seconds": 0.0,
                               "start_offset_seconds":
                                   span.start - self.epoch,
                               "stats": {}}
                order.append(stage)
            rows[stage]["wall_seconds"] += span.wall_seconds
            rows[stage]["stats"].update(span.stats)
        return [rows[stage] for stage in order]

    def render(self, indent=""):
        """Human-readable per-stage profile."""
        lines = []
        total = sum(span.wall_seconds for span in self.spans)
        lines.append("%spipeline profile (total %.6f s):"
                     % (indent, total))
        for row in self.stage_summary():
            stats = " ".join("%s=%s" % (key, row["stats"][key])
                             for key in sorted(row["stats"]))
            lines.append("%s  %-10s +%.6fs %10.6f s  %s"
                         % (indent, row["stage"],
                            row["start_offset_seconds"],
                            row["wall_seconds"], stats))
        return "\n".join(lines)
