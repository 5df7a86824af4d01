"""Pipelined process-backend tests (Step-1→Step-2 streaming).

The contract: the streaming driver — one pool, spill manifests over the
event channel, ready-queue partition claims — must produce graphs and
on-disk artifacts byte-identical to the serial backend, keep crash
containment (a dying Step-2 worker surfaces
as :class:`WorkerCrashed`, never a ready-queue hang), and pre-aggregation
must leave ``HashStats.lock_reduction`` untouched.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.core.subgraph import (
    block_observations,
    build_subgraph,
    preaggregate_observations,
)
from repro.core.hashtable import ConcurrentHashTable
from repro.msp.partitioner import partition_reads
from repro.parallel import WorkerCrashed, WorkerFailed, build_graph_processes
from repro.parallel import backend as backend_mod

CFG = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection monkeypatches the worker module, needs fork",
)


def shm_listing() -> set[str]:
    """Named shared-memory segments alive now (semaphores excluded)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    gc.collect()
    return {
        name for name in os.listdir("/dev/shm")
        if not name.startswith("sem.")
    }


def assert_graphs_identical(a, b):
    assert a.k == b.k
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.counts, b.counts)


# -- equivalence ------------------------------------------------------------------


def test_pipelined_matches_serial(genomic_batch):
    serial = ParaHash(CFG).build_graph(genomic_batch)
    pipelined = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, pipelined.graph)
    assert pipelined.n_kmers == serial.n_kmers
    assert pipelined.n_superkmers == serial.n_superkmers


def test_pipelined_matches_across_worker_counts(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    for w in (1, 3):
        result = ParaHash(
            CFG.with_(backend="processes", n_workers=w)
        ).build_graph(clean_batch)
        assert_graphs_identical(serial.graph, result.graph)


def test_pipelined_without_preaggregation_matches(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2,
                  preaggregate=False)
    ).build_graph(clean_batch)
    assert_graphs_identical(serial.graph, result.graph)


def test_pipelined_disk_artifacts_match_serial(clean_batch, tmp_path):
    """workdir partition files + output_dir subgraphs are byte-identical."""
    outs = {}
    for label, cfg in (
        ("serial", CFG),
        ("pipelined", CFG.with_(backend="processes", n_workers=2))
    ):
        work = tmp_path / label / "work"
        out = tmp_path / label / "out"
        result = ParaHash(cfg).build_graph(
            clean_batch, workdir=work, output_dir=out
        )
        outs[label] = (result, work, out)
    serial_result, serial_work, serial_out = outs["serial"]
    pipe_result, pipe_work, pipe_out = outs["pipelined"]
    assert_graphs_identical(serial_result.graph, pipe_result.graph)
    out_files = sorted(p.name for p in serial_out.iterdir())
    assert out_files == sorted(p.name for p in pipe_out.iterdir())
    assert out_files
    for name in out_files:
        assert (serial_out / name).read_bytes() == (
            pipe_out / name
        ).read_bytes()
    # One canonical partition file per partition, empty ones included —
    # the disk-backed layouts must agree file-for-file.
    serial_parts = sorted(p.name for p in serial_work.glob("partition_*.phsk"))
    pipe_parts = sorted(p.name for p in pipe_work.glob("partition_*.phsk"))
    assert serial_parts == pipe_parts
    assert len(serial_parts) == CFG.n_partitions


def test_pipelined_worker_records_cover_both_steps(genomic_batch):
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    records = result.worker_records
    assert set(records) == {"proc0", "proc1"}
    assert sum(len(r.partitions) for r in records.values()) > 0
    assert all(r.items_processed > 0 for r in records.values())


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "workdir"])
@pytest.mark.parametrize("k", [21, 45])
def test_pipelined_empty_input(tmp_path, monkeypatch, k, disk):
    """Zero reads: empty graph, no pool, no shm, serial's file layout."""
    from repro.dna.reads import ReadBatch

    def no_pool(*args, **kwargs):
        raise AssertionError("an empty input must not start a pool")

    monkeypatch.setattr(backend_mod, "run_workers", no_pool)
    empty = ReadBatch(codes=np.zeros((0, 50), dtype=np.uint8))
    cfg = CFG.with_(k=k)
    work = tmp_path / "processes" if disk else None
    before = shm_listing()
    result = ParaHash(
        cfg.with_(backend="processes", n_workers=2)
    ).build_graph(empty, workdir=work)
    assert result.graph.n_vertices == 0
    assert shm_listing() - before == set()
    if disk:
        serial_work = tmp_path / "serial"
        ParaHash(cfg).build_graph(empty, workdir=serial_work)

        def names(d):
            return sorted(p.name for p in d.glob("partition_*.phsk"))

        assert names(work) == names(serial_work)
        assert len(names(work)) == CFG.n_partitions


def test_default_dispatch_matches_serial(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    result = build_graph_processes(
        clean_batch, CFG.with_(backend="processes", n_workers=2),
    )
    assert_graphs_identical(serial.graph, result.graph)


# -- pre-aggregation --------------------------------------------------------------


def test_preaggregate_observations_counts(rng):
    v = np.array([7, 3, 7, 7, 3, 9], dtype=np.uint64)
    s = np.array([0, 1, 0, 2, 1, 0], dtype=np.int64)
    pv, ps, pc = preaggregate_observations(v, s)
    assert pv.tolist() == [3, 7, 7, 9]
    assert ps.tolist() == [1, 0, 2, 0]
    assert pc.tolist() == [2, 2, 1, 1]
    assert int(pc.sum()) == v.size


def test_preaggregate_observations_empty():
    empty_v = np.zeros(0, dtype=np.uint64)
    empty_s = np.zeros(0, dtype=np.int64)
    pv, ps, pc = preaggregate_observations(empty_v, empty_s)
    assert pv.size == ps.size == pc.size == 0


def test_counted_insert_batch_validation():
    table = ConcurrentHashTable(capacity=16, k=21)
    kmers = np.array([1, 2], dtype=np.uint64)
    slots = np.array([0, 0], dtype=np.int64)
    with pytest.raises(ValueError):
        table.insert_batch(kmers, slots, counts=np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        table.insert_batch(kmers, slots,
                           counts=np.array([1, 0], dtype=np.int64))


def test_lock_reduction_unchanged_by_preaggregation(genomic_batch):
    """Acceptance criterion: Fig 10-style numbers stay honest.

    The metered protocol stats — ops, inserts, key locks, updates,
    count increments, and therefore ``lock_reduction`` exactly — must
    be identical whether observations hit the table one by one or
    pre-aggregated with counts.
    """
    parts = partition_reads(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    checked = 0
    for block in parts.blocks:
        if not block.n_superkmers:
            continue
        plain = build_subgraph(block, preaggregate=False)
        agg = build_subgraph(block, preaggregate=True)
        assert_graphs_identical(plain.graph, agg.graph)
        assert agg.stats.ops == plain.stats.ops
        assert agg.stats.inserts == plain.stats.inserts
        assert agg.stats.key_locks == plain.stats.key_locks
        assert agg.stats.updates == plain.stats.updates
        assert agg.stats.count_increments == plain.stats.count_increments
        assert agg.stats.lock_reduction == plain.stats.lock_reduction
        checked += 1
    assert checked > 0


def test_preaggregation_shrinks_table_touches(genomic_batch):
    """The point of the kernel: duplicated inputs touch the table less."""
    parts = partition_reads(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    block = max(parts.blocks, key=lambda b: b.total_kmers())
    v, s = block_observations(block)
    pv, ps, pc = preaggregate_observations(v, s)
    assert pv.size < v.size  # genomic coverage implies duplicates
    assert int(pc.sum()) == v.size


# -- crash containment ------------------------------------------------------------


def _exploding_step2(job, sizing, preaggregate):
    raise RuntimeError(f"step2 exploded on partition {job.partition}")


def _vanishing_step2(job, sizing, preaggregate):
    os._exit(23)  # simulate a segfault: no traceback, no result


@needs_fork
def test_worker_dying_in_step2_surfaces_workercrashed(genomic_batch, monkeypatch):
    """A vanished Step-2 worker must become WorkerCrashed, not a hang."""
    monkeypatch.setattr(backend_mod, "_process_step2_job", _vanishing_step2)
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0


@needs_fork
def test_worker_raising_in_step2_surfaces_workerfailed(genomic_batch, monkeypatch):
    monkeypatch.setattr(backend_mod, "_process_step2_job", _exploding_step2)
    with pytest.raises(WorkerFailed) as excinfo:
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert "step2 exploded" in str(excinfo.value)


def test_failing_merger_tears_down_pool(genomic_batch, monkeypatch):
    """An exception in the parent's merger must not strand workers."""

    def broken_finalize(self):
        raise RuntimeError("merger failed before publishing")

    monkeypatch.setattr(backend_mod._PipelineMerger, "_finalize_all",
                        broken_finalize)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="merger failed"):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0
