"""Translation and the static check stay near-linear in program size.

One 512-global synthetic program from the e2e benchmark's generator
(``benchmarks/e2e/synth.py``, loaded read-only) must translate and
check inside a generous wall-clock bound.  The main-thread phase
closure and the per-variable whole-unit walks this replaces took
minutes at this size, and a recursive ``CFG.rpo()`` overflowed the
interpreter stack on a ``main`` this long.
"""

import importlib.util
import io
import os
import random
import time

from repro.bench.programs import EXAMPLE_4_1, benchmark_names, \
    benchmark_source
from repro.cfront.frontend import parse_program
from repro.cli import EXIT_OK, main
from repro.ir.cfg import build_cfg

SYNTH = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                     "e2e", "synth.py")
BOUND_S = 30.0


def _synth():
    spec = importlib.util.spec_from_file_location("e2e_synth", SYNTH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_512_globals_translate_and_check_within_bound(tmp_path):
    source, _ = _synth().generate(random.Random(1), globals_=512)
    path = tmp_path / "scale_512.c"
    path.write_text(source)
    start = time.perf_counter()
    translated = _run_cli(["translate", str(path)])
    checked = _run_cli(["check", str(path)])
    elapsed = time.perf_counter() - start
    # an error diagnostic makes either command exit 65 and print it
    assert translated[0] == EXIT_OK, translated[2]
    assert checked[0] == EXIT_OK, checked[2]
    assert "error" not in translated[2] + checked[2]
    assert "RCCE_APP" in translated[1]
    assert "static audit" in checked[1]
    assert elapsed < BOUND_S, "512 globals took %.1f s" % elapsed


def _recursive_rpo(cfg):
    visited = set()
    order = []

    def dfs(block):
        visited.add(block.index)
        for succ, _ in block.successors:
            if succ.index not in visited:
                dfs(succ)
        order.append(block)

    dfs(cfg.entry)
    return order[::-1]


def test_rpo_matches_recursive_reference_on_golden_kernels():
    sources = [EXAMPLE_4_1] + [benchmark_source(name, 4)
                               for name in benchmark_names()]
    assert len(sources) == 7
    functions = 0
    for source in sources:
        for func in parse_program(source).functions():
            cfg = build_cfg(func)
            assert [b.index for b in cfg.rpo()] == \
                [b.index for b in _recursive_rpo(cfg)], func.name
            functions += 1
    assert functions >= 14
