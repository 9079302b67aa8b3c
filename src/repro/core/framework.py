"""The public facade over the five-stage framework.

Typical use::

    from repro.core import TranslationFramework

    framework = TranslationFramework(on_chip_capacity=32 * 8192)
    result = framework.translate(pthread_source)
    print(result.rcce_source)          # the RCCE C program
    print(result.variables.shared())   # what Stage 3 found shared
    print(result.plan)                 # Stage 4's on/off-chip split
"""

from repro.cfront import codegen
from repro.cfront.frontend import parse_program
from repro.diagnostics import PipelineReport
from repro.ir.passes import Driver, ProgramContext
from repro.core.insertion import (
    AddRCCEFinalizeCall,
    AddRCCEInitCall,
    RewriteIncludes,
)
from repro.core.removal import (
    RemovePthreadAPICalls,
    RemovePthreadDataTypes,
    RemovePthreadJoinCalls,
    RemovePthreadSelfCalls,
    RemoveUnusedPrivates,
)
from repro.core.stage1_scope import ScopeAnalysis
from repro.core.stage2_interthread import InterThreadAnalysis
from repro.core.stage3_pointsto import AliasPointerAnalysis
from repro.core.stage4_partition import DataPartitioning
from repro.core.stage5_translate import (
    MutexConversion,
    SharedVariableConversion,
    ThreadsToProcesses,
)

# The SCC's full on-die MPB: 8 KB per core, 48 cores (paper §5.1).
DEFAULT_ON_CHIP_CAPACITY = 48 * 8 * 1024


class FrameworkResult:
    """Everything a framework run produced."""

    def __init__(self, context):
        self.context = context

    @property
    def unit(self):
        return self.context.unit

    @property
    def variables(self):
        return self.context.facts.get("variables")

    @property
    def thread_launches(self):
        return self.context.facts.get("thread_launches", [])

    @property
    def thread_functions(self):
        return self.context.facts.get("thread_functions", set())

    @property
    def points_to(self):
        return self.context.facts.get("points_to", {})

    @property
    def plan(self):
        return self.context.facts.get("partition_plan")

    @property
    def static_report(self):
        """The :class:`repro.static.StaticReport` when the run included
        the static-analysis stage; None otherwise."""
        return self.context.facts.get("static_report")

    @property
    def ues_needed(self):
        """The UEs Stage 5's 1:1 thread-to-UE mapping needs (0 before
        Stage 5 ran): thread k runs on UE k, so a run on fewer UEs
        would drop threads."""
        return self.context.facts.get("ues_needed", 0)

    @property
    def rcce_source(self):
        return codegen.generate(self.unit)

    @property
    def pass_log(self):
        return list(self.context.pass_log)

    @property
    def diagnostics(self):
        return list(self.context.diagnostics)

    @property
    def report(self):
        """The run's findings as a :class:`PipelineReport`."""
        return PipelineReport(self.context.diagnostics)

    @property
    def ok(self):
        """True when no error-severity diagnostic was recorded."""
        return self.report.ok

    def sharing_table(self):
        return self.variables.sharing_table()


class TranslationFramework:
    """Five-stage Pthreads-to-RCCE analysis and translation pipeline."""

    def __init__(self, on_chip_capacity=DEFAULT_ON_CHIP_CAPACITY,
                 partition_policy="size", num_cores=48,
                 thread_id_args=None, fold_threads=False,
                 allow_split=False, profiler=None, strict=True):
        self.on_chip_capacity = on_chip_capacity
        self.partition_policy = partition_policy
        self.num_cores = num_cores
        self.thread_id_args = thread_id_args
        # §7.2 extension: translate T threads onto fewer cores by
        # striding thread indices across UEs (many-to-one mapping)
        self.fold_threads = fold_threads
        # §4.4 extension: split oversized arrays between SRAM and DRAM
        self.allow_split = allow_split
        # optional repro.obs.profile.PipelineProfiler: spans around
        # every stage/pass of each pipeline run
        self.profiler = profiler
        # strict=False degrades gracefully: a failing pass becomes an
        # error Diagnostic on the result instead of an exception
        self.strict = strict

    def _driver(self, passes):
        return Driver(passes, self.profiler, self.strict)

    # -- pipelines ------------------------------------------------------------

    def analysis_passes(self):
        """Stages 1-3."""
        return [
            ScopeAnalysis(),
            InterThreadAnalysis(),
            AliasPointerAnalysis(),
        ]

    def _static_pass(self):
        # imported lazily: repro.static is optional machinery and
        # depends on repro.core submodules
        from repro.static import StaticAnalysisStage
        return StaticAnalysisStage(num_cores=self.num_cores)

    def partition_pass(self, policy=None):
        """Stage 4."""
        return DataPartitioning(self.on_chip_capacity,
                                policy or self.partition_policy,
                                self.allow_split)

    def translation_passes(self):
        """Stage 5 (Algorithm 4 + Appendices A and B)."""
        return [
            ThreadsToProcesses(self.thread_id_args, self.fold_threads),
            MutexConversion(self.num_cores),
            SharedVariableConversion(),
            RemovePthreadJoinCalls(),
            RemovePthreadSelfCalls(),
            RemovePthreadAPICalls(),
            RemovePthreadDataTypes(),
            AddRCCEInitCall(),
            AddRCCEFinalizeCall(),
            RemoveUnusedPrivates(),
            RewriteIncludes(),
        ]

    # -- public API ---------------------------------------------------------------

    def analyze(self, source, filename="<source>"):
        """Run Stages 1-3 only; returns a :class:`FrameworkResult`."""
        context = self._context(source, filename)
        self._driver(self.analysis_passes()).run(context)
        return FrameworkResult(context)

    def check(self, source, filename="<source>"):
        """Run Stages 1-3 plus the static-analysis stage; the result's
        ``static_report`` carries the findings.  The translation never
        runs the static stage, so it cannot change the RCCE program."""
        context = self._context(source, filename)
        passes = self.analysis_passes() + [self._static_pass()]
        self._driver(passes).run(context)
        return FrameworkResult(context)

    def partition(self, source, filename="<source>", policy=None):
        """Run Stages 1-4; returns a :class:`FrameworkResult`."""
        context = self._context(source, filename)
        passes = self.analysis_passes() + [self.partition_pass(policy)]
        self._driver(passes).run(context)
        return FrameworkResult(context)

    def translate(self, source, filename="<source>", policy=None):
        """Run the full five-stage pipeline; the result's
        ``rcce_source`` is the translated RCCE program."""
        context = self._context(source, filename)
        passes = (self.analysis_passes()
                  + [self.partition_pass(policy)]
                  + self.translation_passes())
        self._driver(passes).run(context)
        return FrameworkResult(context)

    @staticmethod
    def _context(source, filename):
        if isinstance(source, str):
            unit = parse_program(source, filename)
        else:
            unit = source  # an already-parsed TranslationUnit
        return ProgramContext(unit)
