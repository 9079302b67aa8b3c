"""End-to-end program runners.

``run_pthread_single_core`` reproduces the paper's baseline: the whole
multithreaded program on one SCC core, threads time-sliced.

``run_rcce`` runs a translated program on N cores: one Python thread
per simulated core, all in one process, with a shared memory object, a
shared RCCE world, and per-core cycle clocks aligned at every barrier.
The reported runtime is the slowest core's final clock — wall time, as
the paper measures.  A deadlock raises ``DeadlockError`` as soon as it
forms (see ``repro.rcce.sync.Monitor``).  A Ctrl-C (or any exception)
in the calling thread stops every simulated core at its next step
before it propagates.

A chip serves one run: each runner claims the chip it is given
(``SCCChip.claim``) before it attaches any hook, so a second run on a
used chip raises ``ValueError`` and the run's metrics snapshot holds
exactly its own counts.

Both runners accept an optional ``faults`` spec (see ``repro.faults``)
and — for ``run_rcce`` — an optional ``recovery``
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
    SimulationTimeout,
    WatchdogAborted,
    WatchdogError,
    core_dumps,
)

# how often run_rcce, waiting for the core threads, wakes to notice a
# Ctrl-C
_JOIN_POLL_SECONDS = 0.1


class RunResult:
    """Outcome of one simulated program run."""

    def __init__(self, cycles, config, output, per_core_cycles=None,
                 exit_value=None, stats=None, metrics=None):
        self.cycles = cycles
        self.config = config
        self.output = output
        self.per_core_cycles = per_core_cycles or {}
        self.exit_value = exit_value
        # counts no metrics series publishes (the pthread runner's
        # thread count and scheduling overhead)
        self.stats = stats or {}
        # the chip's metrics-registry snapshot taken at run end
        self.metrics = metrics or {}
        # runner-level findings (race audit, recovery events)
        self.diagnostics = []
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


def _register_interpreters(chip, interpreters, cores):
    """Publish the run's interpreter progress (steps and cycles per
    core) through the chip's metrics registry.  ``cores`` lists the
    core ids in rank order."""
    position = {core: index for index, core in enumerate(cores)}

    def collect():
        samples = []
        # rank order: core threads append their interpreters in host
        # start order, which varies
        for interp in sorted(interpreters,
                             key=lambda i: position[i.core_id]):
            labels = {"core": interp.core_id}
            samples.append(("counter", "sim_steps", labels,
                            interp.steps))
            samples.append(("counter", "sim_cycles", labels,
                            interp.cycles))
        return samples

    chip.metrics.register_collector("sim.interpreters", collect)


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
                            attribution=None):
    """Run a Pthreads program with all threads on one core."""
    unit = _as_unit(program)
    config = config or Table61Config()
    chip = chip or SCCChip(config)
    injector = _as_injector(faults)
    detector = _as_detector(race)
    attr = _as_attribution(attribution)
    chip.claim()
    if injector is not None:
        injector.attach(chip)
    if detector is not None:
        detector.attach(chip)
    if attr is not None:
        attr.attach(chip)
    memory = Memory()
    runtime = PthreadRuntime()
    interpreters = []
    _register_interpreters(chip, interpreters, [core])
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
            "scheduling_overhead_cycles": overhead,
        },
        metrics=metrics)
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
            elif isinstance(self.exc, WatchdogAborted) and \
                    not isinstance(exc, WatchdogAborted):
                # a peer's aborted wait won the race; the originating
                # failure is the one worth reporting
                self.exc = exc


def run_rcce(program, num_ues, config=None, chip=None, core_map=None,
             max_steps=200_000_000, faults=None,
             recovery=None, race=None, attribution=None):
    """Run a translated RCCE program on ``num_ues`` simulated cores,
    one host thread per core.

    When the calling thread is interrupted while it waits for the cores
    (Ctrl-C, or any other exception), the world is aborted, every core
    stops at its next step or wakes from its sync wait, and the
    exception propagates only once every core thread has exited.
    """
    unit = _as_unit(program)
    config = config or Table61Config()
    chip = chip or SCCChip(config)
    injector = _as_injector(faults)
    detector = _as_detector(race)
    attr = _as_attribution(attribution)
    if recovery is not None and not recovery.active:
        recovery = None
    chip.claim()
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
    _register_interpreters(chip, interpreters,
                           list(core_map) if core_map else range(num_ues))
    world = RCCEWorld(chip, num_ues, core_map)
    monitor = world.monitor
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

    halted = []  # non-empty once the caller stopped the cores
    exited = threading.Condition()
    finished = []  # one entry per core_main that has returned

    def halt_cores():
        """Stop every core at its next step.  ``Interpreter.halt``
        zeroes the budget and the next step event that the compiled
        closures compare against on every step, so it stops a running
        core with no new hot-path check; a core that has not built its
        interpreter yet sees ``halted`` instead."""
        halted.append(True)
        for interp in list(interpreters):
            interp.halt()

    def core_main(rank):
        try:
            runtime = world.runtime_for(rank)
            interp = Interpreter(unit, chip, runtime.core_id, memory,
                                 runtime, max_steps)
            ranks[interp.core_id] = rank
            interpreters.append(interp)
            if halted:
                interp.halt()
            try:
                interp.run_main()
            except ThreadExit:
                pass
            # inside the try: a deadlock this exit completes is this
            # core's error
            monitor.exit(rank)
        except Exception as exc:  # noqa: BLE001 - surfaced to caller
            error.record(exc)
            # unblock every peer waiting at the clock barrier, a lock,
            # a send/recv or a flag; the originating exception rides
            # along so peers report the real cause
            monitor.abort(exc)
        finally:
            with exited:
                finished.append(rank)
                exited.notify()

    def wait_for_cores(count):
        """Wait until the first ``count`` core threads have exited.
        The waits are timed: a Ctrl-C that lands on a core thread (or
        comes from ``_thread.interrupt_main``) reaches this thread only
        when its wait returns.  They are not ``Thread.join`` calls,
        because an interrupted join can mark a running thread
        stopped."""
        with exited:
            while len(finished) < count:
                exited.wait(_JOIN_POLL_SECONDS)
        for thread in threads[:count]:
            thread.join()  # core_main has returned: this is quick

    # register every core with its memory controller BEFORE any core
    # starts executing: the contention model must not depend on host
    # thread-start skew (determinism)
    for rank in range(num_ues):
        chip.activate_core(world.core_map[rank])
    threads = [threading.Thread(target=core_main, args=(rank,),
                                name="scc-ue%d" % rank)
               for rank in range(num_ues)]
    try:
        try:
            for thread in threads:
                thread.start()
            wait_for_cores(num_ues)
        except BaseException as exc:
            # Ctrl-C (or any error) here: no core may outlive the run.
            # Wait for every thread that started (threads start in
            # order, so those with an ident lead the list), including
            # one whose start() returned just as the interrupt landed
            monitor.abort(exc)
            halt_cores()
            wait_for_cores(sum(thread.ident is not None
                               for thread in threads))
            raise
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
    result = RunResult(
        total, config, outputs,
        per_core_cycles=per_core,
        metrics=metrics)
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
                        chip_factory=None, race=None, attribution=None):
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

    ``chip_factory`` builds one chip per attempt: a chip serves one
    run.  Each attempt also gets its own race detector and attribution
    engine (``race``/``attribution`` only ask for one), so the result
    holds the audit and the attribution of the attempt that finished.
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
        # a fresh detector per attempt (race=True builds one here):
        # epochs must not leak between attempts, or replayed accesses
        # would look unordered against the dead run's.  Built
        # explicitly — not inside run_rcce — so a failed attempt's
        # audit can still be reported per attempt.  run_rcce builds
        # the attempt's attribution engine, whose cells likewise
        # start empty.
        attempt_race = _as_detector(
            race if not isinstance(race, RaceDetector)
            else RaceDetector(race.max_findings))
        try:
            result = run_rcce(
                program, num_ues, config=config, chip=chip,
                core_map=core_map, max_steps=max_steps,
                faults=injector, recovery=options,
                race=attempt_race, attribution=bool(attribution))
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
