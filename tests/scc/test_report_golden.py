"""Golden test: chip_report now reads the metrics registry, and the
rendered report must stay byte-identical to the pre-registry output
captured in ``tests/golden/chip_report.txt``."""

import os

import pytest

from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.report import chip_report, render_report

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "chip_report.txt")


@pytest.fixture
def golden_chip():
    """The exact deterministic scenario the golden file was captured
    from (before chip_report was rebuilt on the registry)."""
    chip = SCCChip(SCCConfig())
    private0 = chip.address_space.alloc_private(0, 64)
    private1 = chip.address_space.alloc_private(1, 64)
    shared = chip.address_space.alloc_shared(64)
    mpb = chip.address_space.alloc_mpb(32)
    chip.activate_core(0)
    chip.activate_core(1)
    for _ in range(10):
        chip.access_cost(0, private0.base)
    for _ in range(5):
        chip.access_cost(0, shared.base)
    for _ in range(4):
        chip.access_cost(1, private1.base, "write")
    for _ in range(3):
        chip.access_cost(1, mpb.base, "write", 8)
    chip.access_cost(1, mpb.base, "read", 8)
    return chip


def test_rendered_report_matches_pre_registry_golden(golden_chip):
    with open(GOLDEN) as handle:
        expected = handle.read()
    rendered = render_report(chip_report(golden_chip)) + "\n"
    assert rendered == expected

