"""Job model: spec fingerprints, serialization, execute_job."""

import pytest

from repro.serve.job import (
    Job,
    JobSpec,
    JobTranslationError,
    execute_job,
)
from repro.sim.runner import run_rcce


class TestJobSpec:
    def test_fingerprint_stable(self):
        assert JobSpec(num_ues=4).fingerprint() == \
            JobSpec(num_ues=4).fingerprint()

    def test_fingerprint_covers_every_semantic_knob(self):
        base = JobSpec()
        variants = [
            JobSpec(mode="pthread"),
            JobSpec(num_ues=16),
            JobSpec(policy="frequency"),
            JobSpec(capacity=4096),
            JobSpec(fold=True),
            JobSpec(split=True),
            JobSpec(max_steps=1000),
            JobSpec(faults="mpb_flip:p=0.5"),
        ]
        prints = {spec.fingerprint() for spec in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_dict_round_trip(self):
        spec = JobSpec(mode="pthread", num_ues=16, capacity=8192,
                       fold=True, faults="mpb_flip")
        again = JobSpec.from_dict(spec.as_dict())
        assert again.as_dict() == spec.as_dict()
        assert again.fingerprint() == spec.fingerprint()
        # a spec persisted when jobs still chose an engine loads as-is
        legacy = dict(spec.as_dict(), engine="compiled")
        assert JobSpec.from_dict(legacy).as_dict() == spec.as_dict()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            JobSpec(mode="gpu")


class TestJobSerialization:
    def test_round_trip_preserves_lifecycle(self):
        job = Job("j0001", "int main() { return 0; }",
                  JobSpec(num_ues=2), priority=3,
                  deadline_seconds=1.5, max_retries=2,
                  preemptible=True, checkpoint_every=4)
        job.state = "preempted"
        job.attempts = 2
        job.preemptions = 1
        job.submit_index = 7
        job.restore_from = "/tmp/ckpt"
        again = Job.from_dict(job.as_dict())
        assert again.as_dict() == job.as_dict()

    def test_estimate_scales_with_cores_and_source(self):
        small = Job("a", "x", JobSpec(num_ues=2))
        big = Job("b", "x" * 10_000, JobSpec(num_ues=32))
        assert big.estimate_bytes() > small.estimate_bytes()


class TestExecuteJob:
    def test_byte_identical_to_direct_run(self, pi_source):
        spec = JobSpec(num_ues=4, max_steps=2_000_000)
        payload = execute_job(Job("j", pi_source, spec))
        translated = spec.framework().translate(pi_source)
        direct = run_rcce(translated.unit, 4, max_steps=2_000_000)
        assert payload["cycles"] == direct.cycles
        assert payload["stdout"] == direct.stdout()
        assert payload["per_core_cycles"] == {
            str(rank): cycles for rank, cycles
            in direct.per_core_cycles.items()}
        assert payload["cached"] is False

    def test_pthread_mode(self, pi_source):
        payload = execute_job(Job(
            "j", pi_source,
            JobSpec(mode="pthread", max_steps=20_000_000)))
        assert payload["cycles"] > 0
        assert "pi = " in payload["stdout"]

    def test_translation_error_is_typed(self):
        with pytest.raises(JobTranslationError):
            execute_job(Job("j", "int main( { broken",
                            JobSpec(num_ues=2)))

    def test_payload_is_json_safe(self, pi_source):
        import json
        payload = execute_job(Job(
            "j", pi_source, JobSpec(num_ues=4,
                                    max_steps=2_000_000)))
        assert json.loads(json.dumps(payload)) == payload
