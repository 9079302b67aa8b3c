"""Pipeline profiler: spans, annotations, stage summary."""

from repro.obs.profile import PipelineProfiler


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_span_records_wall_time(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("stage1-scope"):
            pass
        (span,) = profiler.spans
        assert span.name == "stage1-scope"
        assert span.wall_seconds == 1.0

    def test_nested_spans_become_children(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("outer"):
            with profiler.span("inner"):
                pass
        (outer,) = profiler.spans
        assert [child.name for child in outer.children] == ["inner"]

    def test_annotate_hits_innermost_open_span(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("outer"):
            with profiler.span("inner"):
                profiler.annotate(rounds=3)
        (outer,) = profiler.spans
        assert outer.stats == {}
        assert outer.children[0].stats == {"rounds": 3}

    def test_span_kwargs_become_stats(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("simulate", cores=4):
            pass
        assert profiler.spans[0].stats == {"cores": 4}

    def test_reset_clears_spans(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("a"):
            pass
        profiler.reset()
        assert profiler.spans == []


class TestReports:
    def test_report_offsets_relative_to_epoch(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("a"):
            pass
        with profiler.span("b"):
            pass
        report = profiler.report()
        offsets = [entry["start_offset_seconds"] for entry in report]
        assert offsets == sorted(offsets)
        assert report[0]["name"] == "a"

    def test_stage_summary_groups_passes_by_stage(self):
        profiler = PipelineProfiler(clock=FakeClock())
        for name in ("stage5-threads-to-processes",
                     "stage5-mutex-conversion", "rewrite-includes"):
            with profiler.span(name):
                pass
        summary = profiler.stage_summary()
        stages = [row["stage"] for row in summary]
        assert stages == ["stage5", "rewrite-includes"]
        # two passes folded into one stage5 row
        assert summary[0]["wall_seconds"] == 2.0

    def test_stage_summary_merges_stats(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("stage1-a", variables=7):
            pass
        with profiler.span("stage1-b", globals=2):
            pass
        (row,) = profiler.stage_summary()
        assert row["stats"] == {"variables": 7, "globals": 2}

    def test_render_mentions_every_stage(self):
        profiler = PipelineProfiler(clock=FakeClock())
        with profiler.span("stage1-scope"):
            pass
        text = profiler.render("// ")
        assert "pipeline profile" in text
        assert "stage1" in text
        assert all(line.startswith("// ")
                   for line in text.splitlines())

