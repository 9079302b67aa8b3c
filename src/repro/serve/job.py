"""Jobs: one pipeline run as a serializable, resumable object.

The CLI's ``repro run`` is one shot: parse, translate, simulate,
print.  The job service turns that shot into a :class:`Job` — a plain
dict-serializable description of *what* to run (source text plus a
:class:`JobSpec` of the semantic knobs) and *how* the service must
treat it (priority, wall-clock deadline, retry budget,
preemptibility).  A job survives pickling into a worker process,
JSON round-trips through the daemon's queue file, and — when
preempted — resumes from a barrier-aligned checkpoint via the
recovery layer's verified-replay restore path.

:func:`execute_job` is the single execution path: the scheduler's
worker processes call it, tests call it in-process, and its output is
byte-identical to the equivalent direct ``repro run`` invocation
(same translate + ``run_rcce`` plumbing underneath).
"""

import hashlib
import json
import time

from repro.recovery import RecoveryOptions


class ServeError(Exception):
    """Base class for job-service failures."""


class BackpressureError(ServeError):
    """Admission control rejected a submission (queue depth or
    in-flight memory estimate over budget).  ``reason`` is ``"depth"``
    or ``"memory"``."""

    def __init__(self, message, reason="depth"):
        super().__init__(message)
        self.reason = reason


class JobDeadlineError(ServeError):
    """A job's wall-clock deadline expired; the scheduler killed its
    worker.  Deadlines are policy, not transient failures — a
    deadline kill is never retried."""


class JobRetriesExhaustedError(ServeError):
    """A job kept dying to restartable errors until its retry budget
    ran out."""


class JobWorkerDeathError(ServeError):
    """A job's worker process died without reporting an outcome
    (crash, ``os._exit``, external kill).  Restartable: the next
    attempt runs on a fresh worker."""


class JobTranslationError(ServeError):
    """The job's source failed to parse or translate.  Deterministic,
    never retried."""


class UnknownJobError(ServeError):
    """A job id that the service has never seen."""


class JobPreempted(ServeError):
    """Internal control-flow signal: the preemption hook fired at a
    barrier round; the worker checkpointed and unwound.  Never
    surfaces as a job outcome — the scheduler requeues the job."""

    def __init__(self, round_id):
        super().__init__("preempted at barrier round %d" % round_id)
        self.round_id = round_id


# Job lifecycle states (Job.state)
PENDING = "pending"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"


class JobSpec:
    """The semantic half of a job: every knob that can change the
    simulated outcome (and therefore belongs in the result-memo
    fingerprint).  Service policy — priority, deadline, retries —
    lives on :class:`Job` instead and never affects results."""

    FIELDS = ("mode", "num_ues", "policy", "capacity",
              "fold", "split", "max_steps", "faults")

    def __init__(self, mode="rcce", num_ues=8,
                 policy="size", capacity=None, fold=False, split=False,
                 max_steps=200_000_000, faults=None):
        if mode not in ("rcce", "pthread"):
            raise ValueError("mode must be 'rcce' or 'pthread', "
                             "not %r" % mode)
        self.mode = mode
        self.num_ues = int(num_ues)
        self.policy = policy
        self.capacity = capacity
        self.fold = bool(fold)
        self.split = bool(split)
        self.max_steps = int(max_steps)
        self.faults = faults or None

    def as_dict(self):
        return {field: getattr(self, field) for field in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        return cls(**{field: data[field] for field in cls.FIELDS
                      if field in data})

    def fingerprint(self):
        """sha256 over the canonical JSON of the semantic fields —
        the config half of the result memo's (source, config) key."""
        return hashlib.sha256(json.dumps(
            self.as_dict(), sort_keys=True).encode()).hexdigest()

    def framework(self):
        from repro.core.framework import TranslationFramework
        kwargs = {"partition_policy": self.policy,
                  "fold_threads": self.fold,
                  "allow_split": self.split,
                  "strict": False}
        if self.capacity is not None:
            kwargs["on_chip_capacity"] = self.capacity
        return TranslationFramework(**kwargs)

    def __repr__(self):
        return "JobSpec(%s)" % ", ".join(
            "%s=%r" % (field, getattr(self, field))
            for field in self.FIELDS)


class Job:
    """One submission: source + spec + service policy + lifecycle."""

    def __init__(self, job_id, source, spec=None, priority=0,
                 deadline_seconds=None, max_retries=1,
                 preemptible=False, checkpoint_every=1):
        self.job_id = job_id
        self.source = source
        self.spec = spec or JobSpec()
        self.priority = int(priority)
        self.deadline_seconds = deadline_seconds
        self.max_retries = int(max_retries)
        self.preemptible = bool(preemptible)
        self.checkpoint_every = int(checkpoint_every)
        self.state = PENDING
        self.attempts = 0          # worker attempts started
        self.preemptions = 0
        self.submit_index = None   # admission order (chaos targeting)
        self.outcome = None        # {"error","message"} on FAILED
        self.result = None         # execute_job payload on DONE
        self.restore_from = None   # checkpoint path to resume from

    def source_sha(self):
        return hashlib.sha256(self.source.encode()).hexdigest()

    def estimate_bytes(self):
        """Admission-control memory estimate for one worker running
        this job: a worker-process floor plus the parsed source and
        the per-core interpreter/runtime state."""
        return (1_000_000 + 200 * len(self.source)
                + 65_536 * self.spec.num_ues)

    def as_dict(self):
        return {
            "job_id": self.job_id,
            "source": self.source,
            "spec": self.spec.as_dict(),
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "max_retries": self.max_retries,
            "preemptible": self.preemptible,
            "checkpoint_every": self.checkpoint_every,
            "state": self.state,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "submit_index": self.submit_index,
            "outcome": self.outcome,
            "result": self.result,
            "restore_from": self.restore_from,
        }

    @classmethod
    def from_dict(cls, data):
        job = cls(data["job_id"], data["source"],
                  JobSpec.from_dict(data.get("spec", {})),
                  priority=data.get("priority", 0),
                  deadline_seconds=data.get("deadline_seconds"),
                  max_retries=data.get("max_retries", 1),
                  preemptible=data.get("preemptible", False),
                  checkpoint_every=data.get("checkpoint_every", 1))
        job.state = data.get("state", PENDING)
        job.attempts = data.get("attempts", 0)
        job.preemptions = data.get("preemptions", 0)
        job.submit_index = data.get("submit_index")
        job.outcome = data.get("outcome")
        job.result = data.get("result")
        job.restore_from = data.get("restore_from")
        return job

    def summary(self):
        row = {"job_id": self.job_id, "state": self.state,
               "priority": self.priority, "attempts": self.attempts,
               "preemptions": self.preemptions}
        if self.outcome:
            row["error"] = self.outcome.get("error")
        if self.result:
            row["cycles"] = self.result.get("cycles")
            row["cached"] = self.result.get("cached", False)
        return row

    def __repr__(self):
        return "Job(%s, %s, priority=%d)" % (self.job_id, self.state,
                                             self.priority)


def _payload(run_result, wall_seconds):
    """Flatten a RunResult into the JSON-safe job result payload."""
    return {
        "cycles": run_result.cycles,
        # JSON turns int keys into strings; do it eagerly so the
        # payload is identical whether or not it crossed a queue file
        "per_core_cycles": {str(rank): cycles for rank, cycles
                            in sorted(run_result.per_core_cycles.items())},
        "exit_value": run_result.exit_value,
        "stdout": run_result.stdout(),
        "diagnostics": [diag.format()
                        for diag in run_result.diagnostics],
        "wall_seconds": wall_seconds,
        "cached": False,
    }


def execute_job(job, checkpoint_path=None, preempt_check=None,
                restore=None, max_steps=None):
    """Run one job to completion (or preemption) and return its
    result payload.

    ``checkpoint_path`` + ``preempt_check`` arm cooperative
    preemption: every barrier round — *after* any checkpoint for that
    round is written — ``preempt_check(round_id)`` is consulted, and a
    truthy answer raises :class:`JobPreempted` out of the run.
    ``restore`` resumes a previously preempted run from its snapshot
    by verified replay, which is why a preempted-then-resumed job is
    byte-identical to an uninterrupted one.

    Runs in-process: worker processes, tests, and the hypothesis
    preemption property all share this one path.
    """
    from repro.sim.runner import (
        run_pthread_single_core,
        run_rcce,
    )

    spec = job.spec
    started = time.monotonic()
    budget = max_steps if max_steps is not None else spec.max_steps
    if spec.mode == "pthread":
        result = run_pthread_single_core(
            job.source, max_steps=budget, faults=spec.faults)
        return _payload(result, time.monotonic() - started)

    from repro.cfront.errors import CFrontError
    try:
        if "RCCE_APP" in job.source:
            from repro.cfront.frontend import parse_program
            unit = parse_program(job.source, share=True)
        else:
            translated = spec.framework().translate(job.source)
            if translated.report.has_errors:
                raise JobTranslationError(
                    translated.report.render().splitlines()[0]
                    if len(translated.report) else "translation failed")
            unit = translated.unit
    except CFrontError as exc:
        raise JobTranslationError(str(exc))

    recovery = None
    if checkpoint_path or restore is not None \
            or preempt_check is not None:
        on_round = None
        if preempt_check is not None:
            def on_round(round_id):
                if preempt_check(round_id):
                    raise JobPreempted(round_id)
        recovery = RecoveryOptions(
            checkpoint_path=checkpoint_path,
            checkpoint_every=job.checkpoint_every,
            restore=restore, on_round=on_round)
    result = run_rcce(unit, spec.num_ues, max_steps=budget,
                      faults=spec.faults, recovery=recovery)
    return _payload(result, time.monotonic() - started)


def _job_worker_main(job_data, conn, ctl_conn, checkpoint_path,
                     restore, chaos_actions):
    """Worker-process entry point: run one job, report one message.

    Messages on ``conn``:

    * ``("ok", payload)`` — the run completed;
    * ``("preempted", {"round": r})`` — the preemption hook fired
      after a checkpoint; the scheduler requeues the job;
    * ``("error", {"error", "message", "restartable"})`` — the run
      died; ``restartable`` mirrors the supervisor's
      :data:`~repro.recovery.supervisor.RESTARTABLE_ERRORS` taxonomy.

    ``chaos_actions`` is the (scheduler-evaluated, deterministic)
    :class:`~repro.faults.ServeFaultPlan` schedule for this attempt:
    ``kill`` actions make the worker vanish without a message — the
    scheduler must classify the death itself — and ``stall`` actions
    make it sleep through its deadline.
    """
    import os
    import signal

    from repro.recovery.supervisor import RESTARTABLE_ERRORS

    # under fork the worker inherits the daemon's deferred
    # SIGTERM/SIGINT handlers, which would make the scheduler's
    # deadline/preemption ``terminate()`` a no-op; workers take the
    # default (die) disposition instead
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except ValueError:
            break

    for action in chaos_actions or ():
        if action[0] == "kill":
            # abrupt: no message, no cleanup — exactly what a real
            # worker crash looks like to the scheduler
            os._exit(17)
        elif action[0] == "stall":
            time.sleep(action[2])

    job = Job.from_dict(job_data)

    def preempt_check(_round_id):
        return ctl_conn is not None and ctl_conn.poll(0)

    try:
        payload = execute_job(
            job, checkpoint_path=checkpoint_path,
            preempt_check=preempt_check if job.preemptible else None,
            restore=restore)
    except JobPreempted as exc:
        conn.send(("preempted", {"round": exc.round_id}))
    except BaseException as exc:  # noqa: BLE001 - shipped to scheduler
        conn.send(("error", {
            "error": type(exc).__name__,
            "message": str(exc).splitlines()[0] if str(exc) else "",
            "restartable": isinstance(exc, RESTARTABLE_ERRORS),
        }))
    else:
        conn.send(("ok", payload))
    finally:
        conn.close()
