"""AnalysisPass / TransformPass / Driver — the paper's CETUS pass model.

Each pass operates on a :class:`ProgramContext` that wraps the translation
unit plus all facts accumulated by earlier passes.  The IR gets a
consistency check after transforms (the paper notes CETUS's pass classes
"perform some consistency checking to ensure that the IR remains in a
self-consistent state"): each ``TransformPass`` checks that no function
lost its body, and the :class:`Driver` relinks parents and looks for
``None`` holes once after each run of consecutive transforms.
"""

from repro.cfront import c_ast
from repro.diagnostics import Diagnostic


class PassError(Exception):
    """A pass precondition or postcondition was violated."""


class ProgramContext:
    """The shared state threaded through a pass pipeline."""

    def __init__(self, unit):
        self.unit = unit
        self.facts = {}
        self.pass_log = []
        # structured findings accumulated across the pipeline — see
        # repro.diagnostics (graceful degradation)
        self.diagnostics = []

    def require(self, key):
        if key not in self.facts:
            raise PassError("required fact %r not computed; "
                            "run its producing pass first" % key)
        return self.facts[key]

    def provide(self, key, value):
        self.facts[key] = value
        return value

    def diagnose(self, stage, severity, message, coord=None):
        """Record a structured :class:`Diagnostic` (with source
        coordinates when ``coord`` is an AST node's)."""
        if coord is not None:
            diagnostic = Diagnostic.from_coord(stage, severity, message,
                                               coord)
        else:
            diagnostic = Diagnostic(stage, severity, message)
        self.diagnostics.append(diagnostic)
        return diagnostic


class Pass:
    """Base pass: subclasses set ``name`` and implement ``run``."""

    name = "pass"
    requires = ()
    provides = ()

    def run(self, context):
        raise NotImplementedError

    def profile_stats(self, context):
        """Stage-specific statistics for the pipeline profiler
        (``repro.obs.profile``); called after the pass ran."""
        return {}

    def __call__(self, context):
        for key in self.requires:
            context.require(key)
        result = self.run(context)
        for key in self.provides:
            if key not in context.facts:
                raise PassError(
                    "pass %r promised fact %r but did not provide it"
                    % (self.name, key))
        context.pass_log.append(self.name)
        return result


class AnalysisPass(Pass):
    """A pass that only reads the IR and records facts."""


class TransformPass(Pass):
    """A pass that mutates the IR.  It checks that every function kept
    its body; the :class:`Driver` relinks parents after the run of
    transforms it belongs to."""

    def __call__(self, context):
        result = super().__call__(context)
        for func in context.unit.functions():
            if func.body is None or \
                    not isinstance(func.body, c_ast.Compound):
                raise PassError("function %r lost its body" % func.name)
        return result


class Driver:
    """Runs a pipeline of passes in series (paper §5.3's Driver class).

    When a :class:`repro.obs.profile.PipelineProfiler` is attached,
    every pass runs inside a wall-time span annotated with the pass's
    ``profile_stats``.

    With ``strict=False`` a pass that raises no longer aborts the
    pipeline: the exception becomes an error :class:`Diagnostic` on the
    context and the remaining passes still run (graceful degradation —
    the caller inspects ``context.diagnostics`` / the resulting
    :class:`repro.diagnostics.PipelineReport` instead of a traceback).

    After each run of consecutive transforms (:class:`TransformPass`)
    the driver relinks parents in one walk, which also finds a
    ``None`` a transform left in a list field.  Such a hole is a
    :class:`PassError` naming the run's transforms: raised under
    ``strict``, one error diagnostic otherwise.  Under ``strict`` a
    transform that raises while the run holds a hole (say, one that
    tripped over it) gets that PassError instead.
    """

    def __init__(self, passes=None, verbose=False, profiler=None,
                 strict=True):
        self.passes = list(passes or [])
        self.verbose = verbose
        self.profiler = profiler
        self.strict = strict

    def add(self, pass_):
        self.passes.append(pass_)
        return self

    def _run_pass(self, pass_, context, transforms):
        if self.strict:
            try:
                pass_(context)
            except Exception:
                if transforms:
                    self._relink(context, transforms + [pass_])
                raise
            return
        try:
            pass_(context)
        except Exception as exc:
            context.diagnostics.append(
                Diagnostic.from_exception(pass_.name, exc))

    def _relink(self, context, transforms):
        """Relink parents after the run ``transforms``; a hole in a
        list field is a PassError (a diagnostic unless strict)."""
        hole = c_ast.link_parents(context.unit)
        if hole is None:
            return
        field, node = hole
        names = [pass_.name for pass_ in transforms]
        exc = PassError("None left inside list field %r of %s by one of "
                        "the transforms %s"
                        % (field, type(node).__name__, ", ".join(names)))
        if self.strict:
            raise exc
        context.diagnostics.append(
            Diagnostic.from_exception(names[-1], exc))

    def run(self, unit_or_context):
        if isinstance(unit_or_context, ProgramContext):
            context = unit_or_context
        else:
            context = ProgramContext(unit_or_context)
        transforms = []         # the current run of TransformPasses
        for pass_ in self.passes:
            if transforms and not isinstance(pass_, TransformPass):
                self._relink(context, transforms)
                transforms = []
            if self.verbose:
                print("[driver] running %s" % pass_.name)
            if self.profiler is not None:
                with self.profiler.span(pass_.name):
                    self._run_pass(pass_, context, transforms)
                    self.profiler.annotate(
                        **pass_.profile_stats(context))
            else:
                self._run_pass(pass_, context, transforms)
            if isinstance(pass_, TransformPass):
                transforms.append(pass_)
        if transforms:
            self._relink(context, transforms)
        return context
