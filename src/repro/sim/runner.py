"""End-to-end program runners.

``run_pthread_single_core`` reproduces the paper's baseline: the whole
multithreaded program on one SCC core, threads time-sliced.

``run_rcce`` runs a translated program on N cores: one Python thread
per simulated core, a shared memory object, a shared RCCE world, and
per-core cycle clocks aligned at every barrier.  The reported runtime
is the slowest core's final clock — wall time, as the paper measures.

Both runners accept an optional ``faults`` spec (see ``repro.faults``)
and — for ``run_rcce`` — an optional ``watchdog`` (see
``repro.sim.watchdog``) and ``recovery``
(:class:`repro.recovery.RecoveryOptions`).  Every run, faulted and
checkpointed ones included, executes on the closure-compiled engine
(``repro.sim.compile``).  With all left at ``None`` every hook is a
single attribute check and runs are byte-identical to a build without
this layer.

``run_rcce_supervised`` wraps ``run_rcce`` in a restart loop: when a
restartable fault kills a checkpointing run, it reloads the newest
snapshot and re-runs (restore-by-verified-replay) up to
``max_restarts`` times, reporting every attempt in a
:class:`~repro.recovery.RecoveryReport`.
"""

import hashlib
import os
import threading

from repro.cfront.frontend import parse_program
from repro.diagnostics import Diagnostic
from repro.faults import FaultInjector
from repro.obs.attribution import AttributionEngine
from repro.race import RaceDetector
from repro.rcce.api import RCCEWorld
from repro.recovery import (
    CheckpointManager,
    ECCScrubber,
    RecoveryOptions,
    RecoveryReport,
    ReplayVerifier,
    SendRetrier,
    Snapshot,
    SnapshotDivergenceError,
    SnapshotMismatchError,
    StateProbe,
    load_snapshot,
)
from repro.recovery.supervisor import RESTARTABLE_ERRORS
from repro.scc.chip import SCCChip
from repro.scc.config import Table61Config
from repro.sim.compile import compile_unit
from repro.sim.interpreter import (
    Interpreter,
    StepLimitExceeded,
    ThreadExit,
)
from repro.sim.machine import Memory
from repro.sim.pthread_rt import PthreadRuntime
from repro.sim.watchdog import (
    BarrierAbortedError,
    HostFaultError,
    SimulationTimeout,
    WatchdogError,
    core_dumps,
)

class RunResult:
    """Outcome of one simulated program run."""

    def __init__(self, cycles, config, output, per_core_cycles=None,
                 exit_value=None, stats=None, metrics=None,
                 diagnostics=None):
        self.cycles = cycles
        self.config = config
        self.output = output
        self.per_core_cycles = per_core_cycles or {}
        self.exit_value = exit_value
        self.stats = stats or {}
        # the chip's metrics-registry snapshot taken at run end
        self.metrics = metrics or {}
        # runner-level findings (backend downgrades, recovery events)
        self.diagnostics = list(diagnostics) if diagnostics else []
        # RecoveryReport when the run went through the supervisor
        self.recovery = None
        # RaceReport when the run was audited (race=...)
        self.race = None
        # AttributionReport when cycle accounting ran (attribution=...)
        self.attribution = None

    @property
    def seconds(self):
        return self.config.seconds_from_cycles(self.cycles)

    def stdout(self):
        return "".join(self.output)

    def __repr__(self):
        return "RunResult(%d cycles = %.6f s)" % (self.cycles,
                                                  self.seconds)


def _as_unit(program):
    if isinstance(program, str):
        # the runner never mutates the AST, so it can share the parse
        # cache's master copy (repeat benchmark runs of one source then
        # also share the compiled-closure cache keyed on the unit)
        return parse_program(program, share=True)
    return program


def _prepare_chip(chip, interpreters, cores):
    """Per-run observability setup: reset the metrics registry so a
    reused chip does not bleed counters between runs, re-register the
    interpreter collector, and name the trace tracks.  ``cores`` lists
    the core ids in rank order."""
    chip.metrics.reset()
    position = {core: index for index, core in enumerate(cores)}

    def collect():
        samples = []
        # rank order, as the process backend reports it: core threads
        # append their interpreters in host start order, which varies
        for interp in sorted(interpreters,
                             key=lambda i: position[i.core_id]):
            labels = {"core": interp.core_id}
            samples.append(("counter", "sim_steps", labels,
                            interp.steps))
            samples.append(("counter", "sim_cycles", labels,
                            interp.cycles))
        return samples

    chip.metrics.register_collector("sim.interpreters", collect)
    if chip.events.enabled:
        for core in cores:
            chip.events.set_thread(chip.trace_pid, core,
                                   "core %d" % core)


def _as_injector(faults):
    """Accept a spec string, a FaultInjector, or None."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults if faults.active else None
    injector = FaultInjector(faults)
    return injector if injector.active else None


def _as_detector(race):
    """Accept a RaceDetector, truthy (build a default one), or None."""
    if race is None or race is False:
        return None
    if isinstance(race, RaceDetector):
        return race
    return RaceDetector()


def _as_attribution(attribution):
    """Accept an AttributionEngine, truthy (build one), or None."""
    if attribution is None or attribution is False:
        return None
    if isinstance(attribution, AttributionEngine):
        return attribution
    return AttributionEngine()


def _source_sha(program):
    """Content hash of a source-string program (None for a pre-parsed
    unit) — snapshots record it so a restore from the wrong program is
    rejected instead of diverging confusingly mid-replay."""
    if isinstance(program, str):
        return hashlib.sha256(program.encode("utf-8")).hexdigest()
    return None


def _file_identity(path):
    """``(inode, mtime_ns, size)`` of ``path``, or None when absent."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


def unshardable(program, faults=None, race=None, attribution=None,
                recovery=None, tracing=False):
    """The parts of a run the process backend cannot shard, as
    ``(reason, flag)`` pairs: ``reason`` words the downgrade warning
    and ``flag`` names the ``repro run`` option that asks for the part
    (None for a pre-parsed program unit, which only library callers
    pass: workers re-parse source).  Every other part needs one shared
    live world.  Each argument is truthy when its feature is on."""
    return [(reason, flag) for reason, flag, wanted in (
        ("a pre-parsed program unit", None, not isinstance(program, str)),
        ("fault injection", "--faults", faults),
        ("race detection", "--race", race),
        ("cycle attribution", "--bottlenecks", attribution),
        ("recovery", "--recover/--checkpoint/--restore", recovery),
        ("event tracing", "--trace", tracing),
    ) if wanted]


def _resolve_host_path(jobs, program, injector, detector, attr,
                       recovery, chip):
    """Pick the run's one host path — the process backend or a
    sequential run; returns ``(use_process, warning)``.

    A run with anything :func:`unshardable` names runs sequentially.
    This happens loudly: a warning :class:`Diagnostic` the CLI prints
    (and refuses under ``--strict``), never silently.  The watchdog
    does not force a downgrade: the parallel coordinator sees every
    sync wait, so it maps the watchdog's lock/barrier timeouts onto
    its own parked/wall-clock supervision."""
    if jobs <= 1:
        return False, None
    reasons = unshardable(program, injector, detector, attr, recovery,
                          chip.events.enabled)
    if not reasons:
        return True, None
    return False, Diagnostic.warning(
        "simulate",
        "jobs=%d requested but the process backend cannot shard a run "
        "with %s; running sequentially (jobs=1)"
        % (jobs, " and ".join(reason for reason, _ in reasons)))


def _timeout_from(exc, interpreters, ranks=None):
    """Convert a step-budget overrun into a SimulationTimeout carrying
    per-core state dumps; attach dumps to watchdog errors too."""
    dumps = core_dumps(interpreters, ranks)
    if isinstance(exc, StepLimitExceeded) and \
            not isinstance(exc, SimulationTimeout):
        return SimulationTimeout(str(exc), dumps)
    if isinstance(exc, (WatchdogError, SimulationTimeout)) and \
            not exc.dumps:
        exc.dumps = dumps
    return exc


def run_pthread_single_core(program, config=None, chip=None, core=0,
                            max_steps=200_000_000, faults=None, race=None,
                            attribution=None, jobs=1):
    """Run a Pthreads program with all threads on one core."""
    unit = _as_unit(program)
    config = config or Table61Config()
    chip = chip or SCCChip(config)
    injector = _as_injector(faults)
    detector = _as_detector(race)
    attr = _as_attribution(attribution)
    diagnostics = []
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs > 1:
        # the paper's baseline time-slices every thread on ONE core —
        # there is nothing to shard; decline loudly, never silently
        diagnostics.append(Diagnostic.warning(
            "simulate",
            "jobs=%d requested but the pthread baseline time-slices "
            "all threads on a single core; running sequentially"
            % jobs))
    if injector is not None:
        injector.attach(chip)
    if detector is not None:
        detector.attach(chip)
    if attr is not None:
        attr.attach(chip)  # before _prepare_chip: its reset hooks in
    memory = Memory()
    runtime = PthreadRuntime()
    interpreters = []
    _prepare_chip(chip, interpreters, [core])
    interp = Interpreter(unit, chip, core, memory, runtime, max_steps)
    interpreters.append(interp)
    chip.activate_core(core)
    try:
        try:
            exit_value = interp.run_main()
        except ThreadExit as texit:
            exit_value = texit.value
        except StepLimitExceeded as exc:
            timeout = _timeout_from(exc, interpreters)
            timeout.threads = runtime.state_dump()
            raise timeout from None
        runtime.run_pending(interp)
    finally:
        chip.deactivate_core(core)
        metrics = chip.metrics.snapshot()
        if attr is not None:
            attr.detach()
        if detector is not None:
            detector.detach()
        if injector is not None:
            injector.detach()
    overhead = runtime.scheduling_overhead_cycles(config, interp.cycles)
    if attr is not None and overhead:
        # the quantum tax is paid outside the interpreter loop; classify
        # it so the conservation invariant covers the reported total
        attr.add(core, "sched_overhead", overhead)
    total = interp.cycles + overhead
    result = RunResult(
        total, config, interp.output,
        per_core_cycles={core: total},
        exit_value=exit_value,
        stats={
            "threads": len(runtime.order),
            "compute_cycles": interp.cycles,
            "scheduling_overhead_cycles": overhead,
            "cache": chip.cache_stats(core),
        },
        metrics=metrics,
        diagnostics=diagnostics)
    if detector is not None:
        result.race = detector.report()
        result.diagnostics.extend(result.race.diagnostics())
    if attr is not None:
        result.attribution = attr.report({core: total})
    return result


class _CoreError:
    """Mutable holder for exceptions raised inside core threads."""

    def __init__(self):
        self.exc = None
        self.lock = threading.Lock()

    def record(self, exc):
        with self.lock:
            if self.exc is None:
                self.exc = exc
            elif isinstance(self.exc, BarrierAbortedError) and \
                    not isinstance(exc, BarrierAbortedError):
                # a peer's secondary barrier abort won the race; the
                # originating failure is the one worth reporting
                self.exc = exc


def run_rcce(program, num_ues, config=None, chip=None, core_map=None,
             max_steps=200_000_000, faults=None,
             watchdog=None, recovery=None, race=None, attribution=None,
             jobs=1, quantum=None):
    """Run a translated RCCE program on ``num_ues`` simulated cores.

    ``jobs > 1`` shards the simulated cores over host worker processes
    with Graphite-style lax clock sync (see ``repro.sim.parallel``);
    ``quantum`` is the lax-sync reconciliation interval in simulated
    cycles.  Cycles and outputs are byte-identical to ``jobs=1`` for
    any shard count and any quantum.  A run the process backend cannot
    take (see :func:`_resolve_host_path`) runs sequentially,
    with one warning diagnostic.  So does a sharded run whose worker
    process dies or stalls: the attempt is abandoned and the program
    reruns at ``jobs=1`` from the beginning, with one warning.
    """
    unit = _as_unit(program)
    config = config or Table61Config()
    chip = chip or SCCChip(config)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    injector = _as_injector(faults)
    detector = _as_detector(race)
    attr = _as_attribution(attribution)
    if recovery is not None and not recovery.active:
        recovery = None
    diagnostics = []
    use_process, parallel_downgrade = _resolve_host_path(
        jobs, program, injector, detector, attr, recovery, chip)
    if parallel_downgrade is not None:
        diagnostics.append(parallel_downgrade)
    if use_process:
        # nothing below composes with sharded worker processes (that
        # is exactly what _resolve_host_path just checked), so
        # hand the whole run to the process backend; the parse above
        # already surfaced any front-end error in this process
        from repro.sim.parallel import run_rcce_parallel
        try:
            return run_rcce_parallel(
                program, num_ues, config, chip, core_map, max_steps,
                jobs, quantum=quantum,
                diagnostics=diagnostics, watchdog=watchdog)
        except HostFaultError as exc:
            # a worker died or stalled: rerun the whole program
            # sequentially, from the beginning
            diagnostics.append(Diagnostic.warning(
                "simulate",
                "%s: %s; degraded to sequential (jobs=1) and re-ran "
                "from the beginning" % (type(exc).__name__, exc)))
    if injector is not None:
        injector.attach(chip)
    if detector is not None:
        detector.attach(chip)  # before the world: it reads chip.race
    if attr is not None:
        attr.attach(chip)  # before the world: it binds the rank map
    # lower the unit once, before any core thread spawns: the
    # compiled-unit cache is shared and this keeps thread startup
    # deterministic and contention-free
    compile_unit(unit)
    interpreters = []
    _prepare_chip(chip, interpreters,
                  list(core_map) if core_map else range(num_ues))
    world = RCCEWorld(chip, num_ues, core_map, watchdog)
    memory = Memory()
    error = _CoreError()
    ranks = {}

    scrubber = manager = verifier = snapshot = None
    if recovery is not None:
        if recovery.ecc:
            scrubber = ECCScrubber(recovery.scrub_cycles).attach(chip)
        if recovery.retry:
            world.retrier = SendRetrier(injector,
                                        recovery.retry_policy)
        if recovery.restore is not None:
            snapshot = recovery.restore
            if not isinstance(snapshot, Snapshot):
                snapshot = load_snapshot(snapshot, config=config,
                                         source_sha=_source_sha(program))
            if snapshot.num_ues != num_ues or \
                    snapshot.core_map != world.core_map:
                raise SnapshotMismatchError(
                    "snapshot %s was taken with num_ues=%d "
                    "core_map=%r, not num_ues=%d core_map=%r"
                    % (snapshot.path or "<snapshot>",
                       snapshot.num_ues, snapshot.core_map,
                       num_ues, world.core_map))
            verifier = ReplayVerifier(snapshot)
        if recovery.checkpoint_path:
            manager = CheckpointManager(recovery.checkpoint_path,
                                        recovery.checkpoint_every)
    if manager is not None or verifier is not None:
        probe = StateProbe(chip, world, memory, interpreters, ranks,
                           num_ues, world.core_map,
                           source_sha=_source_sha(program))
        hooks = []
        if verifier is not None:
            hooks.append(verifier.bind(probe).on_round)
        if manager is not None:
            hooks.append(manager.bind(probe).on_round)
        if len(hooks) == 1:
            world.barrier.on_round = hooks[0]
        else:
            def barrier_round(round_id, _hooks=tuple(hooks)):
                for hook in _hooks:
                    hook(round_id)
            world.barrier.on_round = barrier_round

    def core_main(rank):
        try:
            runtime = world.runtime_for(rank)
            interp = Interpreter(unit, chip, runtime.core_id, memory,
                                 runtime, max_steps)
            ranks[interp.core_id] = rank
            interpreters.append(interp)
            try:
                interp.run_main()
            except ThreadExit:
                pass
        except Exception as exc:  # noqa: BLE001 - surfaced to caller
            error.record(exc)
            # unblock every peer parked at the clock barrier or inside
            # a watchdog-supervised lock wait; the originating
            # exception rides along so peers report the real cause
            world.abort(exc)

    # register every core with its memory controller BEFORE any core
    # starts executing: the contention model must not depend on host
    # thread-start skew (determinism)
    for rank in range(num_ues):
        chip.activate_core(world.core_map[rank])
    threads = [threading.Thread(target=core_main, args=(rank,),
                                name="scc-ue%d" % rank)
               for rank in range(num_ues)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for rank in range(num_ues):
            chip.deactivate_core(world.core_map[rank])
        world.barrier.on_round = None
        # snapshot metrics before unhooking so the recovery collectors
        # (checkpoints, ECC) contribute their final counts
        metrics = chip.metrics.snapshot()
        if manager is not None:
            manager.unbind()
        if scrubber is not None:
            scrubber.detach()
        if attr is not None:
            attr.detach()
        if detector is not None:
            detector.detach()
        if injector is not None:
            injector.detach()
    if error.exc is not None:
        raise _timeout_from(error.exc, interpreters, ranks)
    if verifier is not None and not verifier.verified:
        raise SnapshotDivergenceError(
            "run finished without reaching snapshot round %d (%s) — "
            "the snapshot does not belong to this run"
            % (snapshot.round, snapshot.path or "<snapshot>"))

    per_core = {interp.core_id: interp.cycles for interp in interpreters}
    total = max(per_core.values())
    outputs = []
    for interp in sorted(interpreters, key=lambda i: i.core_id):
        outputs.extend(interp.output)
    stats = {
        "num_ues": num_ues,
        "barrier_rounds": world.barrier.rounds,
        "mpb_fallbacks": world.mpb_fallbacks,
        "controllers": {index: (stats.reads, stats.writes)
                        for index, stats
                        in chip.controller_stats().items()},
    }
    result = RunResult(
        total, config, outputs,
        per_core_cycles=per_core,
        stats=stats,
        metrics=metrics,
        diagnostics=diagnostics)
    if detector is not None:
        result.race = detector.report()
        result.diagnostics.extend(result.race.diagnostics())
    if attr is not None:
        result.attribution = attr.report(per_core,
                                         core_of=world.core_map)
    return result


def run_rcce_supervised(program, num_ues, config=None, core_map=None,
                        max_steps=200_000_000,
                        faults=None, recovery=None, max_restarts=1,
                        chip_factory=None, watchdog_factory=None,
                        race=None, attribution=None, jobs=1):
    """Run an RCCE program under a restarting supervisor.

    The run checkpoints at barrier rounds
    (``recovery.checkpoint_path`` is required); when it dies from a
    :data:`RESTARTABLE_ERRORS` failure, the supervisor reloads the
    newest snapshot this run wrote (before the first one, it starts
    over from where the run began) and re-runs on a fresh chip —
    keeping the *same* fault injector, with its RNG streams reset, so
    the replayed prefix reproduces the original injection schedule
    and one-shot faults stay fired.  After ``max_restarts`` restarts
    the last error propagates with the :class:`RecoveryReport`
    attached as ``recovery_report``.

    ``chip_factory``/``watchdog_factory`` build one chip/watchdog per
    attempt (both are stateful across a failed run: a watchdog's abort
    latch is sticky and a chip's address space accumulates).
    """
    config = config or Table61Config()
    recovery = recovery if recovery is not None else RecoveryOptions()
    if not recovery.checkpoint_path:
        raise ValueError(
            "supervised runs need recovery.checkpoint_path")
    injector = _as_injector(faults)
    report = RecoveryReport(max_restarts)
    source_sha = _source_sha(program)
    # a file already at the checkpoint path belongs to an earlier run
    # (a pre-parsed unit carries no source hash to reject it by);
    # every checkpoint write replaces the file, changing this identity
    stale = _file_identity(recovery.checkpoint_path)
    options = recovery
    attempt = 0
    while True:
        chip = chip_factory() if chip_factory is not None \
            else SCCChip(config)
        watchdog = watchdog_factory() if watchdog_factory is not None \
            else None
        # a fresh detector per attempt (race=True builds one here):
        # epochs must not leak between attempts, or replayed accesses
        # would look unordered against the dead run's.  Built
        # explicitly — not inside run_rcce — so a failed attempt's
        # audit can still be reported per attempt.
        attempt_race = _as_detector(
            race if not isinstance(race, RaceDetector)
            else RaceDetector(race.max_findings))
        try:
            result = run_rcce(
                program, num_ues, config=config, chip=chip,
                core_map=core_map, max_steps=max_steps,
                faults=injector, watchdog=watchdog, recovery=options,
                race=attempt_race, attribution=attribution,
                jobs=jobs)
        except RESTARTABLE_ERRORS as exc:
            if attempt >= max_restarts:
                exc.recovery_report = report
                raise
            restored = None
            options = recovery
            if _file_identity(recovery.checkpoint_path) \
                    not in (None, stale):
                snapshot = load_snapshot(recovery.checkpoint_path,
                                         config=config,
                                         source_sha=source_sha)
                restored = snapshot.round
                options = recovery.with_restore(snapshot)
            report.record_failure(
                attempt, exc, restored,
                audit=attempt_race.report()
                if attempt_race is not None else None)
            if injector is not None:
                injector.reset_streams()
            attempt += 1
            continue
        report.restarts = attempt
        report.recovered = attempt > 0
        result.recovery = report
        result.diagnostics.extend(report.diagnostics())
        if report.restarts:
            result.metrics.setdefault("counters", {})[
                "recovery_restarts"] = [{"labels": {},
                                         "value": report.restarts}]
        return result
