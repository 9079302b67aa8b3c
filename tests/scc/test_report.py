"""Chip report tests."""

import pytest

from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.report import chip_report, render_report


@pytest.fixture
def busy_chip():
    chip = SCCChip(SCCConfig())
    private = chip.address_space.alloc_private(0, 64)
    shared = chip.address_space.alloc_shared(64)
    chip.activate_core(0)
    for _ in range(10):
        chip.access_cost(0, private.base)
    for _ in range(5):
        chip.access_cost(0, shared.base)
    return chip


class TestChipReport:
    def test_only_active_cores_listed(self, busy_chip):
        report = chip_report(busy_chip)
        assert list(report["cores"]) == [0]

    def test_cache_rates_present(self, busy_chip):
        core0 = chip_report(busy_chip)["cores"][0]
        assert 0.0 <= core0["l1_hit_rate"] <= 1.0
        assert core0["l1_accesses"] == 10  # shared bypasses the caches

    def test_access_mix(self, busy_chip):
        core0 = chip_report(busy_chip)["cores"][0]
        assert core0["accesses"]["private"] == 10
        assert core0["accesses"]["shared"] == 5

    def test_controllers_traffic(self, busy_chip):
        report = chip_report(busy_chip)
        mc0 = report["controllers"][0]
        assert mc0["reads"] >= 5
        assert mc0["active_requesters"] == 1

    def test_power_in_envelope(self, busy_chip):
        report = chip_report(busy_chip)
        assert 25.0 <= report["power_watts"] <= 125.0

    def test_active_core_filter(self, busy_chip):
        report = chip_report(busy_chip, active_cores=[1, 2])
        assert report["cores"] == {}

    def test_config_block(self, busy_chip):
        config = chip_report(busy_chip)["config"]
        assert config["cores"] == 48
        assert config["core_freq_mhz"] == 800


class TestRendering:
    def test_render_contains_sections(self, busy_chip):
        text = render_report(chip_report(busy_chip))
        assert "chip: 48 cores @ 800 MHz" in text
        assert "core  0:" in text
        assert "memory controllers:" in text
        assert "power:" in text

    def test_render_quiet_chip(self):
        chip = SCCChip(SCCConfig())
        text = render_report(chip_report(chip))
        assert "cores:" not in text


def _segment_counts(chip, core):
    """The core's ``scc_core_accesses`` series, by segment."""
    rows = chip.metrics.snapshot()["counters"]["scc_core_accesses"]
    return {row["labels"]["segment"]: row["value"] for row in rows
            if row["labels"]["core"] == core}


class TestSegmentMix:
    def test_fractions_sum_to_one(self, busy_chip):
        counts = _segment_counts(busy_chip, 0)
        total = sum(counts.values())
        assert total == 15
        assert counts["private"] / total == pytest.approx(10 / 15)

    def test_idle_core_all_zero(self, busy_chip):
        assert _segment_counts(busy_chip, 7) == {}
