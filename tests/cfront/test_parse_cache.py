"""The parse memoization layer: repeat parses of one source must come
from cache, callers must get independent (or explicitly shared) ASTs,
and differing predefines/headers must not collide."""

import copy
import glob
import os

import pytest

from repro.bench.programs import EXAMPLE_4_1, STREAM_KERNELS, \
    benchmark_names, benchmark_source, stream_kernel
from repro.cfront import c_ast, codegen
from repro.cfront.frontend import (
    parse_cache_clear,
    parse_cache_info,
    parse_program,
)
from repro.core import TranslationFramework

SOURCE = "int x = 3;\nint main(void) { return x; }"
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _corpus():
    yield "example_4_1", EXAMPLE_4_1
    for name in benchmark_names():
        for nthreads in (2, 4, 8):
            yield "%s/%d" % (name, nthreads), \
                benchmark_source(name, nthreads)
    for kernel in STREAM_KERNELS:
        yield "stream_kernel/%s" % kernel, stream_kernel(kernel, 4)


def _fixtures():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.c"),
                                 recursive=True)):
        with open(path) as handle:
            yield os.path.relpath(path, FIXTURES), handle.read()


CORPUS = list(_corpus())
PROGRAMS = CORPUS + list(_fixtures())


def _ids(programs):
    return [label for label, _ in programs]


@pytest.fixture(autouse=True)
def _fresh_cache():
    parse_cache_clear()
    yield
    parse_cache_clear()


def test_repeat_parse_hits_cache():
    parse_program(SOURCE)
    before = parse_cache_info()
    parse_program(SOURCE)
    after = parse_cache_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_default_returns_are_independent_copies():
    first = parse_program(SOURCE)
    second = parse_program(SOURCE)
    assert first is not second
    # mutating one caller's AST must not leak into the next caller's
    first.decls[0].name = "mutated"
    assert parse_program(SOURCE).decls[0].name != "mutated"


def test_share_returns_the_master_copy():
    shared_one = parse_program(SOURCE, share=True)
    shared_two = parse_program(SOURCE, share=True)
    assert shared_one is shared_two


def test_predefines_are_part_of_the_key():
    with_a = parse_program("int main(void) { return N; }",
                           predefined={"N": 1})
    with_b = parse_program("int main(void) { return N; }",
                           predefined={"N": 2})
    assert parse_cache_info()["misses"] == 2
    assert with_a is not with_b


def test_cache_is_bounded():
    for index in range(80):
        parse_program("int main(void) { return %d; }" % index)
    info = parse_cache_info()
    assert info["entries"] <= info["max"]


def _assert_clone_of(copied, reference, master):
    """``copied`` matches ``reference`` (a deep copy of ``master``)
    node for node, and shares no node or list with ``master``."""
    pending = [(copied, reference, master, None)]
    while pending:
        node, ref, orig, holder = pending.pop()
        assert type(node) is type(ref)
        assert node is not orig
        assert list(node.__dict__) == list(ref.__dict__)
        assert node.parent is holder
        for key, value in node.__dict__.items():
            if key == "parent":
                continue
            values = [(value, ref.__dict__[key], orig.__dict__[key])]
            while values:
                value, ref_value, orig_value = values.pop()
                if isinstance(value, c_ast.Node):
                    pending.append((value, ref_value, orig_value, node))
                elif isinstance(value, list):
                    assert value is not orig_value
                    assert len(value) == len(ref_value)
                    values += zip(value, ref_value, orig_value)
                else:
                    # immutable leaves are shared with the master
                    assert value == ref_value
                    assert value is orig_value


@pytest.mark.parametrize("label,source", PROGRAMS, ids=_ids(PROGRAMS))
def test_clone_matches_deepcopy_of_master(label, source):
    missed = parse_program(source)
    hit = parse_program(source)
    master = parse_program(source, share=True)
    reference = copy.deepcopy(master)
    for copied in (missed, hit):
        _assert_clone_of(copied, reference, master)


@pytest.mark.parametrize("label,source", CORPUS, ids=_ids(CORPUS))
def test_translating_a_clone_leaves_the_master_intact(label, source):
    master = parse_program(source, share=True)
    before = codegen.generate(master)
    TranslationFramework().translate(parse_program(source))
    assert codegen.generate(master) == before


def test_clone_refuses_to_alias_a_mutable_attribute():
    unit = parse_program(SOURCE)
    unit.decls[0].notes = {"shared": True}
    with pytest.raises(TypeError):
        c_ast.clone(unit)
