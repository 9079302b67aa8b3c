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
        with open(tmp, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
        os.replace(tmp, self.path)
        self.captured += 1
        self.last_round = round_id
        chip = probe.chip
        if chip.events.enabled:
            chip.events.instant(
                0, max(doc["clocks"].values() or [0]), "checkpoint",
                "recovery", {"round": round_id, "path": self.path},
                pid=chip.trace_pid)


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


class ShardCheckpoint:
    """Quantum-aligned recovery record for one shard of the parallel
    process backend (``repro.sim.parallel``).

    A worker's interpreter state is a live Python call stack and
    cannot travel over a pipe, so — exactly like :class:`ReplayVerifier`
    above — a shard restore is **verified replay**: the respawned
    worker re-executes its ranks from program start while the
    coordinator serves it the *recorded* reply for every sync RPC it
    already answered, without touching the live sync state machine.
    Because each rank's execution between coordinator replies is
    deterministic, the replayed shard arrives back at the crash
    frontier with byte-identical memory, clocks, and output, then
    seamlessly transitions to live requests.

    The record kept per rank:

    * ``replies`` — every coordinator reply, verbatim, as
      ``(op, status, payload, batch)``; ``batch`` carries the shared
      write versions shipped with that reply, so the replayed shard's
      memory evolves through exactly the recorded sequence.
    * ``delta_counts`` / ``delta_hashes`` — how many shared-write log
      entries the rank has contributed and an order-sensitive rolling
      hash over them.  During replay the re-produced entries are
      *suppressed* (already in the global log) and verified against
      the hash at the boundary; entries beyond the recorded count are
      fresh work and re-enter the log live.

    ``acked_tick`` is the last coordinator-acknowledged quantum tick —
    the "restored from quantum N" figure in the recovery report.  Any
    divergence between replayed and recorded execution raises
    :class:`SnapshotDivergenceError` (the verified-replay contract).
    """

    def __init__(self, shard, ranks):
        self.shard = shard
        self.ranks = list(ranks)
        self.replies = {rank: [] for rank in self.ranks}
        self.cursors = {rank: 0 for rank in self.ranks}
        self.delta_counts = {rank: 0 for rank in self.ranks}
        self.delta_hashes = {rank: b"" for rank in self.ranks}
        self.replay_counts = dict(self.delta_counts)
        self.replay_hashes = dict(self.delta_hashes)
        self.acked_tick = 0
        self.restores = 0

    # -- recording (normal operation) ----------------------------------

    def record_reply(self, rank, op, status, payload, batch):
        """A reply the coordinator is about to send to ``rank``."""
        self.replies[rank].append((op, status, payload, batch))
        self.cursors[rank] += 1

    def note_tick(self, tick):
        """The coordinator acknowledged quantum tick ``tick``."""
        if tick > self.acked_tick:
            self.acked_tick = tick

    # -- replay (after a respawn) --------------------------------------

    def begin_replay(self):
        """Rewind the per-rank cursors for a respawned worker."""
        self.restores += 1
        self.cursors = {rank: 0 for rank in self.cursors}
        self.replay_counts = {rank: 0 for rank in self.delta_counts}
        self.replay_hashes = {rank: b"" for rank in self.delta_hashes}

    def replaying(self, rank):
        """Whether ``rank``'s next request is answered from the
        record rather than the live sync state machine."""
        return self.cursors[rank] < len(self.replies[rank])

    def next_reply(self, rank, op):
        """The recorded reply for ``rank``'s current request, which
        must ask for the same ``op`` the original run asked for."""
        cursor = self.cursors[rank]
        recorded = self.replies[rank][cursor]
        if recorded[0] != op:
            raise SnapshotDivergenceError(
                "shard %d replay diverged: rank %d asked for %r at "
                "reply %d but the recorded run asked for %r"
                % (self.shard, rank, op, cursor, recorded[0]))
        self.cursors[rank] = cursor + 1
        return recorded

    def _track(self, rank):
        """Lazily register a write stream the plan did not predict —
        notably ``rank is None``, the worker's main thread logging
        shared writes during single-threaded world setup (before rank
        threads bind).  That stream is just as deterministic as a
        rank's, so it gets the same cursor treatment."""
        if rank not in self.delta_counts:
            self.delta_counts[rank] = 0
            self.delta_hashes[rank] = b""
            self.replay_counts[rank] = 0
            self.replay_hashes[rank] = b""

    def record_delta(self, rank, addr, value):
        """Fold one shared-write log entry from ``rank`` into the
        per-rank cursor state.  Returns True when the entry is new
        (append it to the global log); False when it merely replays
        an already-logged write (suppress it)."""
        self._track(rank)
        token = repr((addr, value)).encode("utf-8")
        if self.replay_counts[rank] < self.delta_counts[rank]:
            self.replay_hashes[rank] = hashlib.sha256(
                self.replay_hashes[rank] + token).digest()
            self.replay_counts[rank] += 1
            if self.replay_counts[rank] == self.delta_counts[rank] \
                    and self.replay_hashes[rank] \
                    != self.delta_hashes[rank]:
                raise SnapshotDivergenceError(
                    "shard %d replay diverged: rank %d re-produced "
                    "%d shared writes but their content differs from "
                    "the recorded run" % (self.shard, rank,
                                          self.delta_counts[rank]))
            return False
        self.delta_counts[rank] += 1
        self.delta_hashes[rank] = hashlib.sha256(
            self.delta_hashes[rank] + token).digest()
        self.replay_counts[rank] = self.delta_counts[rank]
        self.replay_hashes[rank] = self.delta_hashes[rank]
        return True

    def as_dict(self):
        """Diagnostic summary (not a serialization format)."""
        return {
            "shard": self.shard,
            "ranks": list(self.ranks),
            "acked_tick": self.acked_tick,
            "restores": self.restores,
            "recorded_replies": {rank: len(entries) for rank, entries
                                 in sorted(self.replies.items())},
            # the None stream (main-thread setup writes) sorts first
            "delta_counts": dict(sorted(
                self.delta_counts.items(),
                key=lambda item: (item[0] is not None, item[0] or 0))),
        }
