"""Tests for repro.service.runner (manifest-guarded stage graph)."""

import json

import pytest

from repro.core.parahash import ParaHash, ParaHashConfig
from repro.dna.io import load_read_batch, save_read_batch
from repro.graph.compare import compare_graphs
from repro.graph.serialize import load_graph
from repro.service import JobSpec, JobStore, run_job
from repro.service.runner import JobFailed


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def make_spec(reads_file, **over) -> JobSpec:
    kwargs = dict(input=str(reads_file), k=15, p=4, n_partitions=6,
                  n_step1_tasks=2)
    kwargs.update(over)
    return JobSpec(**kwargs)


def stamps(record) -> dict[str, float]:
    """created-timestamp per stage manifest: the skip/re-run witness."""
    return {
        path.stem: json.loads(path.read_text())["created"]
        for path in record.manifest_dir.glob("*.json")
    }


class TestInlineRun:
    def test_matches_serial_parahash(self, store, reads_file,
                                     genomic_batch):
        record = store.create(make_spec(reads_file))
        graph_path = run_job(record)

        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(genomic_batch).graph
        diff = compare_graphs(load_graph(graph_path), serial)
        assert diff.n_only_a == 0
        assert diff.n_only_b == 0
        assert diff.n_shared > 0
        assert record.status == "done"

    def test_status_reports_progress_fields(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        doc = record.read_status()
        assert doc["stage"] == "finalize"
        assert doc["step2_total"] == 6
        assert "elapsed_seconds" in doc

    def test_rerun_skips_every_stage(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        assert len(before) == 2 + 1 + 6 + 1  # step1 x2, merge, step2 x6, final
        run_job(record)
        assert stamps(record) == before

    def test_failure_lands_in_status(self, store, tmp_path):
        record = store.create(
            make_spec(tmp_path / "never_written.fasta")
        )
        with pytest.raises(JobFailed):
            run_job(record)
        doc = record.read_status()
        assert doc["status"] == "failed"
        assert doc["error"]


class TestInvalidation:
    def test_changed_input_reruns_step1(self, store, reads_file,
                                        clean_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        save_read_batch(reads_file, clean_batch, fmt="fasta")
        run_job(record)
        after = stamps(record)
        assert after["step1_t0000"] != before["step1_t0000"]
        assert after["step1_t0001"] != before["step1_t0001"]
        assert record.status == "done"

    def test_changed_input_changes_result(self, store, reads_file,
                                          clean_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        first = load_graph(record.graph_path)
        save_read_batch(reads_file, clean_batch, fmt="fasta")
        run_job(record)
        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(load_read_batch(reads_file)).graph
        diff = compare_graphs(load_graph(record.graph_path), serial)
        assert diff.n_only_a == 0 and diff.n_only_b == 0
        assert compare_graphs(first, serial).n_only_b > 0  # really changed

    def test_truncated_subgraph_reruns_only_that_partition(
            self, store, reads_file, genomic_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        victim = record.subgraph_dir / "subgraph_0002.phdbg"
        victim.write_bytes(victim.read_bytes()[:16])  # torn write
        run_job(record)
        after = stamps(record)
        assert after["step2_p0002"] != before["step2_p0002"]
        unchanged = [s for s in after
                     if s.startswith("step2") and s != "step2_p0002"]
        for stage in unchanged:
            assert after[stage] == before[stage]
        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(genomic_batch).graph
        diff = compare_graphs(load_graph(record.graph_path), serial)
        assert diff.n_only_a == 0 and diff.n_only_b == 0

    def test_changed_params_invalidate(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        # same directory, new spec: a resubmit with different lam
        record2 = store.create(
            make_spec(reads_file, lam=3.0)
        )
        run_job(record2)
        assert record2.status == "done"
        assert stamps(record) == before  # first job untouched


class TestBigK:
    def test_big_k_inline(self, store, reads_file):
        record = store.create(make_spec(reads_file, k=41, p=6))
        graph_path = run_job(record)
        assert len(load_graph(graph_path).planes) == 2
        # determinism: an independent job over the same input agrees
        record2 = store.create(make_spec(reads_file, k=41, p=6))
        run_job(record2)
        diff = compare_graphs(load_graph(graph_path),
                              load_graph(record2.graph_path))
        assert diff.n_only_a == 0 and diff.n_only_b == 0
        assert diff.n_shared > 0
