"""Smoke tests: the example scripts must keep running.

Only the fast examples execute here (the heavier sweeps are exercised
through the harness tests and the benchmark suite)."""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "translate_example.py",
    "message_passing.py",
    "power_management.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.join(EXAMPLES_DIR, script)
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), script


def test_quickstart_shows_speedup(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "quickstart.py"),
                   run_name="__main__")
    output = capsys.readouterr().out
    assert "speedup:" in output
    assert "pi = 3.14" in output


def test_translate_example_shows_tables(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "translate_example.py"),
                   run_name="__main__")
    output = capsys.readouterr().out
    assert "Table 4.1" in output
    assert "Table 4.2" in output
    assert "RCCE_shmalloc" in output


def test_message_passing_answers(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "message_passing.py"),
                   run_name="__main__")
    output = capsys.readouterr().out
    assert "sum of squares over 8 UEs = 140.0" in output
    assert "read mailbox 777" in output


def test_all_examples_exist():
    expected = {
        "quickstart.py", "translate_example.py", "benchmark_suite.py",
        "scaling_study.py", "partitioning_explorer.py",
        "message_passing.py", "power_management.py",
    }
    present = {name for name in os.listdir(EXAMPLES_DIR)
               if name.endswith(".py")}
    assert expected <= present
