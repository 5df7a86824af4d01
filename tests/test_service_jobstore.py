"""Tests for repro.service.jobstore (specs, status, directory layout)."""

import pytest

from repro.dna.kmer import key_planes
from repro.service.jobstore import (
    RETIRED_SPEC_KEYS,
    JobError,
    JobSpec,
    JobStore,
)


def spec(**over) -> JobSpec:
    kwargs = dict(input="/data/reads.fa", k=15, p=4, n_partitions=8)
    kwargs.update(over)
    return JobSpec(**kwargs)


class TestJobSpec:
    def test_defaults_valid(self):
        s = spec()
        assert s.claim_weight == 1
        assert key_planes(s.k) == 1

    def test_big_k_flag(self):
        assert key_planes(spec(k=41, p=6).k) == 2

    @pytest.mark.parametrize("bad", [
        dict(k=0), dict(k=64), dict(p=0), dict(p=16),  # p > k=15
        dict(n_partitions=0), dict(n_step1_tasks=0),
        dict(claim_weight=0), dict(step2_delay=-1.0), dict(max_memory=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(JobError):
            spec(**bad)

    def test_round_trip(self):
        s = spec(claim_weight=3, preaggregate=True)
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_from_dict_human_memory(self):
        s = JobSpec.from_dict({"input": "/r.fa", "max_memory": "2K"})
        assert s.max_memory == 2048

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(JobError, match="unknown"):
            JobSpec.from_dict({"input": "/r.fa", "kmer": 15})

    @pytest.mark.parametrize("key", RETIRED_SPEC_KEYS)
    def test_from_dict_rejects_retired_table_keys(self, key):
        # Only JobStore.load drops these from a stored job.json; a new
        # submission naming them is an error.
        with pytest.raises(JobError, match="unknown"):
            JobSpec.from_dict({"input": "/r.fa", key: "flat"})

    def test_from_dict_requires_input(self):
        with pytest.raises(JobError, match="input"):
            JobSpec.from_dict({"k": 15})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(["not", "a", "dict"])

    def test_with_weight(self):
        assert spec().with_weight(4).claim_weight == 4


class TestJobStore:
    def test_create_layout(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        assert record.spec_path.is_file()
        assert record.status_path.is_file()
        for d in (record.manifest_dir, record.spill_dir,
                  record.partition_dir, record.subgraph_dir):
            assert d.is_dir()
        assert record.status == "queued"

    def test_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        created = store.create(spec(claim_weight=2))
        loaded = store.load(created.job_id)
        assert loaded.spec == created.spec
        assert loaded.job_dir == created.job_dir

    def test_load_unknown_job(self, tmp_path):
        with pytest.raises(JobError, match="no such job"):
            JobStore(tmp_path).load("nope")

    def test_list_jobs_sorted_by_id(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [store.create(spec()).job_id for _ in range(3)]
        assert [r.job_id for r in store.list_jobs()] == sorted(ids)

    def test_status_updates_merge(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        record.write_status(stage="step1", step1_done=2)
        record.set_state("running")
        doc = record.read_status()
        assert doc["status"] == "running"
        assert doc["stage"] == "step1"
        assert doc["step1_done"] == 2

    def test_bad_state_rejected(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        with pytest.raises(JobError):
            record.set_state("zombie")

    def test_corrupt_status_recovers(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        record.status_path.write_text("{ torn")
        assert record.status == "queued"  # manifests are the real truth

    def test_describe_carries_id_and_spec(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        doc = record.describe()
        assert doc["id"] == record.job_id
        assert doc["spec"]["k"] == 15
