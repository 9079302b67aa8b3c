"""Pass infrastructure tests."""

import pytest

from repro.cfront import c_ast, ctypes
from repro.cfront.parser import parse
from repro.ir.passes import (
    AnalysisPass,
    Driver,
    PassError,
    ProgramContext,
    TransformPass,
)


class _Recorder(AnalysisPass):
    name = "recorder"
    provides = ("record",)

    def run(self, context):
        context.provide("record", 42)


class _Consumer(AnalysisPass):
    name = "consumer"
    requires = ("record",)

    def run(self, context):
        context.provide("consumed", context.require("record") + 1)


class TestProgramContext:
    def test_provide_and_require(self):
        context = ProgramContext(parse("int x;"))
        context.provide("k", "v")
        assert context.require("k") == "v"

    def test_require_missing_raises(self):
        context = ProgramContext(parse("int x;"))
        with pytest.raises(PassError):
            context.require("nope")


class TestDriver:
    def test_passes_run_in_order(self):
        context = Driver([_Recorder(), _Consumer()]).run(parse("int x;"))
        assert context.facts["consumed"] == 43
        assert context.pass_log == ["recorder", "consumer"]

    def test_missing_requirement_fails(self):
        with pytest.raises(PassError):
            Driver([_Consumer()]).run(parse("int x;"))

    def test_promised_fact_enforced(self):
        class Liar(AnalysisPass):
            name = "liar"
            provides = ("something",)

            def run(self, context):
                pass

        with pytest.raises(PassError):
            Driver([Liar()]).run(parse("int x;"))

    def test_driver_accepts_existing_context(self):
        context = ProgramContext(parse("int x;"))
        Driver([_Recorder()]).run(context)
        assert context.facts["record"] == 42

    def test_add_chained(self):
        driver = Driver().add(_Recorder()).add(_Consumer())
        assert len(driver.passes) == 2


class TestTransformConsistency:
    def test_transform_relinks_parents(self):
        class AddDecl(TransformPass):
            name = "add-decl"

            def run(self, context):
                decl = c_ast.Decl("added", __import__(
                    "repro.cfront.ctypes", fromlist=["INT"]).INT)
                context.unit.decls.append(decl)

        context = Driver([AddDecl()]).run(parse("int x;"))
        added = context.unit.decls[-1]
        assert added.parent is context.unit

    def test_transform_detects_none_in_list(self):
        class Corrupt(TransformPass):
            name = "corrupt"

            def run(self, context):
                context.unit.decls.append(None)

        with pytest.raises(PassError):
            Driver([Corrupt()]).run(parse("int x;"))

    def test_transform_detects_lost_body(self):
        class LoseBody(TransformPass):
            name = "lose-body"

            def run(self, context):
                context.unit.functions()[0].body = None

        with pytest.raises(PassError):
            Driver([LoseBody()]).run(parse("void f(void) { }"))


class _LeaveHole(TransformPass):
    name = "leave-hole"

    def run(self, context):
        context.unit.decls.append(None)


class _AddGlobal(TransformPass):
    name = "add-global"

    def run(self, context):
        context.unit.decls.append(c_ast.Decl("added", ctypes.INT))


class _ReadNames(TransformPass):
    name = "read-names"

    def run(self, context):
        [decl.name for decl in context.unit.decls]


class TestTransformRuns:
    """Parents are relinked, and holes looked for, once per run of
    consecutive transforms."""

    def test_hole_raises_after_a_following_transform(self):
        with pytest.raises(PassError) as info:
            Driver([_LeaveHole(), _AddGlobal()]).run(parse("int x;"))
        assert "leave-hole, add-global" in str(info.value)

    def test_hole_is_one_diagnostic_when_lenient(self):
        context = Driver([_LeaveHole(), _AddGlobal()],
                         strict=False).run(parse("int x;"))
        errors = [d for d in context.diagnostics if d.severity == "error"]
        assert len(errors) == 1
        assert "None left inside list field 'decls'" in \
            errors[0].message
        assert "leave-hole, add-global" in errors[0].message
        assert context.pass_log == ["leave-hole", "add-global"]

    def test_transform_tripping_on_a_hole_raises_pass_error(self):
        with pytest.raises(PassError, match="leave-hole, read-names"):
            Driver([_LeaveHole(), _ReadNames()]).run(parse("int x;"))

    def test_one_relink_per_run(self, monkeypatch):
        unit = parse("int x;")
        calls = []
        relink = c_ast.link_parents
        monkeypatch.setattr(c_ast, "link_parents",
                            lambda root: calls.append(root) or
                            relink(root))
        context = Driver([_AddGlobal(), _AddGlobal(), _Recorder(),
                          _AddGlobal()]).run(unit)
        assert len(calls) == 2
        assert all(decl.parent is context.unit
                   for decl in context.unit.decls)
