"""Table 6.1 — the SCC experimental configuration."""

from conftest import write_result

from repro.core.reports import format_table
from repro.scc.chip import SCCChip
from repro.scc.config import Table61Config


def test_table_6_1(benchmark, results_dir):
    def build():
        config = Table61Config()
        SCCChip(config)  # the full chip assembles under this config
        return config

    config = benchmark(build)
    rows = config.table_6_1(execution_units=32)
    write_result(results_dir, "table_6_1.txt", format_table(
        rows, columns=["parameter", "rcce", "pthreads"],
        title="Table 6.1: SCC configuration"))

    by_param = {row["parameter"]: row for row in rows}
    assert by_param["Core Frequency"]["rcce"] == "800 MHz"
    assert by_param["Communication Network"]["rcce"] == "1600 MHz"
    assert by_param["Off-chip Memory"]["rcce"] == "1066 MHz"
    assert by_param["Execution Units"]["rcce"] == "32 cores"
    assert by_param["Execution Units"]["pthreads"] == "32 threads"
