"""Barrier-aligned checkpoint/restore for RCCE simulations.

A :class:`ClockBarrier`'s phase-1 action runs while every party thread
is parked inside ``wait`` — a natural quiesce point where the whole
architectural state of the simulation is stable: DRAM/MPB contents,
the LUT-backed allocation map, the test-and-set registers, and each
core's cycle/step cursors.  :class:`CheckpointManager` serializes that
state to a versioned JSON snapshot every N barrier rounds.

**Restore is verified replay.**  A core's execution state is a live
Python call stack of compiled closures and cannot be serialized
mid-flight, but the simulator is deterministic: restoring a snapshot
means re-executing the program from the start and, when the recorded
barrier round is reached, verifying that the replayed state matches
the snapshot byte-for-byte (clocks, per-core cursors, output, memory
digest, LUT, registers).  A mismatch raises
:class:`SnapshotDivergenceError`; a match certifies that the
continuation is exactly the run the snapshot came from.  Under the
supervisor, a restarted attempt keeps the same fault injector
(one-shot faults stay fired) with its RNG streams reset, so the
replayed prefix reproduces the original injection schedule and the
verification holds even for faulted campaigns.

Snapshot files are self-describing: ``format``/``version`` headers, a
fingerprint of the :class:`~repro.scc.config.SCCConfig`, the source
sha, and a sha-256 digest over the encoded memory image.  Malformed or
mismatched snapshots raise :class:`SnapshotError` (the CLI maps it to
exit code 65).
"""

import hashlib
import json
import os

from repro.sim.values import FunctionRef, Pointer

SNAPSHOT_MAGIC = "repro-snapshot"
SNAPSHOT_VERSION = 1

_REQUIRED_KEYS = ("format", "version", "config", "num_ues", "core_map",
                  "round", "clocks", "cores", "output_sha",
                  "memory_digest", "memory", "registers", "lut")


class SnapshotError(Exception):
    """A snapshot file is malformed, truncated, or unusable."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot does not belong to this run (config, source, or
    topology differs)."""


class SnapshotDivergenceError(SnapshotError):
    """Replayed state did not match the snapshot at its barrier round."""


class CheckpointWriteError(Exception):
    """The snapshot file cannot be created or written."""


def _encode_value(value):
    """One simulated memory word as a JSON-safe form.  Scalars stay
    native (JSON round-trips Python ints and reprs floats exactly);
    non-scalars get a small tagged list."""
    if isinstance(value, bool):
        return ["b", int(value)]
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Pointer):
        return ["p", value.addr, value.stride]
    if isinstance(value, FunctionRef):
        return ["fn", value.name]
    return ["x", repr(value)]


def encode_memory(items):
    """Sorted ``(addr, value)`` pairs -> JSON-safe nested lists."""
    return [[addr, _encode_value(value)] for addr, value in items]


def memory_digest(encoded):
    """Content hash of an encoded memory image (order included)."""
    payload = json.dumps(encoded, separators=(",", ":"),
                         sort_keys=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config):
    """The scalar attributes of an SCCConfig, for compatibility
    checks between the snapshotting run and the restoring run."""
    return {name: value for name, value in sorted(vars(config).items())
            if isinstance(value, (bool, int, float, str))}


class Snapshot:
    """A parsed, validated snapshot document."""

    def __init__(self, doc, path=None):
        self.doc = doc
        self.path = path

    @property
    def round(self):
        return self.doc["round"]

    @property
    def num_ues(self):
        return self.doc["num_ues"]

    @property
    def core_map(self):
        return list(self.doc["core_map"])

    def state(self):
        """The replay-comparable subset of the document."""
        return {key: self.doc[key]
                for key in ("round", "clocks", "cores", "output_sha",
                            "memory_digest", "registers", "lut")}


def load_snapshot(path, config=None, source_sha=None):
    """Read and validate a snapshot file.

    Raises :class:`SnapshotError` for anything malformed (bad JSON,
    wrong magic/version, missing sections, a memory image whose digest
    does not match) and :class:`SnapshotMismatchError` when ``config``
    or ``source_sha`` disagree with what the snapshot records.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise SnapshotError(
                "%s is not a valid snapshot (truncated or corrupt "
                "JSON: %s)" % (path, exc)) from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_MAGIC:
        raise SnapshotError("%s is not a repro snapshot file" % path)
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            "%s has snapshot version %r; this build reads version %d"
            % (path, doc.get("version"), SNAPSHOT_VERSION))
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise SnapshotError(
            "%s is missing snapshot section(s): %s"
            % (path, ", ".join(missing)))
    if memory_digest(doc["memory"]) != doc["memory_digest"]:
        raise SnapshotError(
            "%s memory image does not match its recorded digest "
            "(truncated or corrupted file)" % path)
    if config is not None:
        recorded = doc["config"]
        current = config_fingerprint(config)
        for key in sorted(set(recorded) | set(current)):
            if recorded.get(key) != current.get(key):
                raise SnapshotMismatchError(
                    "%s was taken under a different SCCConfig: "
                    "%s is %r there but %r here"
                    % (path, key, recorded.get(key), current.get(key)))
    if source_sha is not None and doc.get("source_sha") is not None \
            and doc["source_sha"] != source_sha:
        raise SnapshotMismatchError(
            "%s was taken from a different program "
            "(source sha %s.. vs %s..)"
            % (path, doc["source_sha"][:12], source_sha[:12]))
    return Snapshot(doc, path)


class StateProbe:
    """Captures the quiescent simulation state at a barrier round.

    Built by the runner and shared by :class:`CheckpointManager` and
    :class:`ReplayVerifier` so both sides of a checkpoint/restore pair
    observe exactly the same fields.  ``capture`` only reads — it never
    perturbs clocks, memory, or metrics, keeping checkpointed runs
    byte-identical to uncheckpointed ones.
    """

    def __init__(self, chip, world, memory, interpreters, ranks,
                 num_ues, core_map, source_sha=None):
        self.chip = chip
        self.world = world
        self.memory = memory
        self.interpreters = interpreters
        self.ranks = ranks
        self.num_ues = num_ues
        self.core_map = list(core_map)
        self.source_sha = source_sha

    def header(self):
        return {
            "format": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "config": config_fingerprint(self.chip.config),
            "num_ues": self.num_ues,
            "core_map": self.core_map,
            "source_sha": self.source_sha,
        }

    def capture(self, round_id):
        interps = sorted(self.interpreters, key=lambda i: i.core_id)
        cores = [{"core": interp.core_id,
                  "rank": self.ranks.get(interp.core_id),
                  "cycles": interp.cycles,
                  "steps": interp.steps}
                 for interp in interps]
        output = "".join("".join(interp.output) for interp in interps)
        encoded = encode_memory(self.memory.items())
        registers = self.world.registers
        lut = [[str(seg.kind), seg.base, seg.size,
                seg.owner, seg.label]
               for seg in sorted(self.chip.address_space.allocations,
                                 key=lambda s: s.base)]
        return {
            "round": round_id,
            "clocks": {str(rank): clock for rank, clock in sorted(
                self.world.barrier.published_clocks().items())},
            "cores": cores,
            "output_sha": hashlib.sha256(
                output.encode("utf-8")).hexdigest(),
            "memory_digest": memory_digest(encoded),
            "memory": encoded,
            "registers": {
                "owners": {str(k): v for k, v in sorted(
                    registers.owners.items())},
                "acquisitions": list(registers.acquisitions),
            },
            "lut": lut,
        }


class CheckpointManager:
    """Writes a snapshot of the run every ``every`` barrier rounds.

    The write is atomic (temp file + rename) so a crash mid-write
    never corrupts the previous good snapshot — the supervisor always
    finds either the old state or the new one.
    """

    COLLECTOR_NAME = "recovery.checkpoint"

    def __init__(self, path, every=1):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = path
        self.every = every
        self.captured = 0
        self.last_round = None
        self._probe = None

    def bind(self, probe):
        self._probe = probe
        probe.chip.metrics.register_collector(
            self.COLLECTOR_NAME, self._collect_metrics, self._reset)
        return self

    def unbind(self):
        if self._probe is not None:
            self._probe.chip.metrics.unregister_collector(
                self.COLLECTOR_NAME)
            self._probe = None

    def _collect_metrics(self):
        return [("counter", "checkpoints_captured", {}, self.captured)]

    def _reset(self):
        self.captured = 0

    def on_round(self, round_id):
        """Barrier phase-1 action hook: every party is parked."""
        probe = self._probe
        if probe is None or round_id % self.every:
            return
        doc = probe.header()
        doc.update(probe.capture(round_id))
        tmp = "%s.tmp" % self.path
        try:
            with open(tmp, "w") as handle:
                json.dump(doc, handle, separators=(",", ":"))
            os.replace(tmp, self.path)
        except OSError as exc:
            raise CheckpointWriteError(exc) from exc
        self.captured += 1
        self.last_round = round_id


class ReplayVerifier:
    """Certifies a restore-by-replay run against its snapshot.

    When the replayed run reaches the snapshot's barrier round, the
    captured state must match the recorded one field-for-field;
    afterwards the run *is* the original run continued past its
    checkpoint, so running to completion restores it.
    """

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self.verified = False
        self._probe = None

    def bind(self, probe):
        self._probe = probe
        return self

    def on_round(self, round_id):
        if self.verified or self._probe is None \
                or round_id != self.snapshot.round:
            return
        expected = self.snapshot.state()
        observed = self._probe.capture(round_id)
        for key in ("round", "clocks", "cores", "output_sha",
                    "memory_digest", "registers", "lut"):
            if observed[key] != expected[key]:
                raise SnapshotDivergenceError(
                    "replay diverged from snapshot %s at barrier "
                    "round %d: %s differs"
                    % (self.snapshot.path or "<snapshot>", round_id,
                       key))
        self.verified = True
