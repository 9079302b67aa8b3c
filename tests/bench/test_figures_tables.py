"""Figure/table module tests (rendering and paper-reference data)."""

import pytest

from repro.bench.figures import render_bars
from repro.bench.programs import EXAMPLE_4_1
from repro.bench.tables import PAPER_TABLE_4_1, PAPER_TABLE_4_2
from repro.bench.workloads import (
    SCALED_ON_CHIP_CAPACITY,
    default_workloads,
    scaled_config,
)
from repro.core.framework import TranslationFramework
from repro.core.reports import table_4_1, table_4_2
from repro.scc.config import Table61Config


class TestRenderBars:
    ROWS = [
        {"name": "a", "value": 10.0},
        {"name": "bb", "value": 5.0},
    ]

    def test_peak_gets_full_width(self):
        chart = render_bars(self.ROWS, "name", "value", width=20)
        lines = chart.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_values_printed(self):
        chart = render_bars(self.ROWS, "name", "value")
        assert "10.00" in chart
        assert "5.00" in chart

    def test_labels_aligned(self):
        chart = render_bars(self.ROWS, "name", "value")
        lines = chart.splitlines()
        assert lines[0].startswith("a ")
        assert lines[1].startswith("bb")

    def test_title(self):
        chart = render_bars(self.ROWS, "name", "value", title="T")
        assert chart.splitlines()[0] == "T"

    def test_empty(self):
        assert render_bars([], "name", "value") == "(no data)"

    def test_minimum_one_hash(self):
        rows = [{"n": "big", "v": 1000.0}, {"n": "tiny", "v": 0.001}]
        chart = render_bars(rows, "n", "v", width=30)
        assert all("#" in line for line in chart.splitlines())


@pytest.fixture(scope="module")
def running_example():
    return TranslationFramework().analyze(EXAMPLE_4_1)


class TestTables:
    def test_table_4_1_default_uses_running_example(self, running_example):
        rows = table_4_1(running_example)
        assert {row["name"] for row in rows} == set(PAPER_TABLE_4_1)

    def test_table_4_2_matches_paper_reference(self, running_example):
        rows = {row["variable"]: row for row in table_4_2(running_example)}
        for name, stages in PAPER_TABLE_4_2.items():
            assert (rows[name]["stage1"], rows[name]["stage2"],
                    rows[name]["stage3"]) == stages

    def test_table_6_1_custom_units(self):
        rows = Table61Config().table_6_1(execution_units=48)
        units = [r for r in rows if r["parameter"] == "Execution Units"]
        assert units[0]["rcce"] == "48 cores"


class TestWorkloads:
    def test_all_six_benchmarks_present(self):
        assert set(default_workloads()) == {
            "pi", "sum35", "primes", "stream", "dot", "lu"}

    def test_lu_exceeds_scaled_capacity(self):
        """The Figure 6.2 no-fit invariant must hold by construction."""
        workloads = default_workloads()
        assert workloads["lu"].shared_bytes_estimate > \
            SCALED_ON_CHIP_CAPACITY

    def test_others_fit_scaled_capacity(self):
        workloads = default_workloads()
        for name in ("pi", "sum35", "primes", "stream"):
            assert workloads[name].shared_bytes_estimate <= \
                SCALED_ON_CHIP_CAPACITY, name

    def test_scaled_config_keeps_table_6_1_frequencies(self):
        config = scaled_config()
        assert config.core_freq_mhz == 800
        assert config.mesh_freq_mhz == 1600
        assert config.dram_freq_mhz == 1066

    def test_scaled_config_shrinks_caches(self):
        config = scaled_config()
        assert config.l1_size < 8 * 1024
        assert config.l2_size < 256 * 1024

    def test_stream_arrays_exceed_scaled_l2(self):
        """Streaming benchmarks must thrash the baseline's L2."""
        config = scaled_config()
        assert default_workloads()["stream"].shared_bytes_estimate > \
            config.l2_size

    def test_overrides(self):
        config = scaled_config(l1_size=2048)
        assert config.l1_size == 2048
