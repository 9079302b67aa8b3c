"""The recovery layer: make seeded fault campaigns survivable.

Four cooperating pieces close the fault layer's inject -> detect loop
with *recover*:

* :mod:`repro.recovery.ecc` — SECDED-style scrubbing of flipped
  MPB/DRAM reads (correct single-bit, condemn multi-bit);
* :mod:`repro.recovery.retry` — sequence-numbered, idempotent
  ``RCCE_send`` with bounded exponential backoff over message drops;
* :mod:`repro.recovery.checkpoint` — barrier-aligned versioned
  snapshots plus restore-by-verified-replay;
* :mod:`repro.recovery.supervisor` — the report object behind
  :func:`repro.sim.runner.run_rcce_supervised`.

Everything defaults off; with a ``RecoveryOptions`` absent (or all
fields false) every hook in the chip, world, and interpreter is a
single ``is not None`` branch and runs are byte-identical to a build
without this package.
"""

from repro.recovery.checkpoint import (  # noqa: F401
    SNAPSHOT_VERSION,
    CheckpointManager,
    CheckpointWriteError,
    ReplayVerifier,
    Snapshot,
    SnapshotDivergenceError,
    SnapshotError,
    SnapshotMismatchError,
    StateProbe,
    load_snapshot,
)
from repro.recovery.ecc import (  # noqa: F401
    ECC_SCRUB_CYCLES,
    ECCScrubber,
    UncorrectableECCError,
)
from repro.recovery.retry import (  # noqa: F401
    MeshRetryExhaustedError,
    RetryPolicy,
    SendRetrier,
)
from repro.recovery.supervisor import RecoveryReport  # noqa: F401


class RecoveryOptions:
    """Switchboard for one run's recovery features (all off by
    default).  ``restore`` takes a snapshot path or a loaded
    :class:`Snapshot`."""

    def __init__(self, ecc=False, retry=False, retry_policy=None,
                 scrub_cycles=None, checkpoint_path=None,
                 checkpoint_every=1, restore=None):
        self.ecc = ecc
        self.retry = retry
        self.retry_policy = retry_policy
        self.scrub_cycles = scrub_cycles
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.restore = restore

    @property
    def active(self):
        return bool(self.ecc or self.retry or self.checkpoint_path
                    or self.restore is not None)

    def with_restore(self, restore):
        """A copy with a different restore source (the supervisor
        swaps in the newest checkpoint between attempts)."""
        return RecoveryOptions(
            ecc=self.ecc, retry=self.retry,
            retry_policy=self.retry_policy,
            scrub_cycles=self.scrub_cycles,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            restore=restore)

    def __repr__(self):
        return ("RecoveryOptions(ecc=%r, retry=%r, checkpoint=%r, "
                "every=%r, restore=%r)"
                % (self.ecc, self.retry, self.checkpoint_path,
                   self.checkpoint_every, self.restore))
