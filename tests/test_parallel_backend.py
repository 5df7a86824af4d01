"""Process-backend tests: backend equivalence, crash safety, shared CAS.

The contract under test is the PR's acceptance criterion: the
``processes`` backend must produce graphs bit-identical to the
``serial`` backend, and a worker that dies mid-build must surface as a
clean error instead of hanging the parent.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import BACKENDS, ParaHashConfig
from repro.core.hashtable import ConcurrentHashTable
from repro.core.parahash import ParaHash
from repro.dna.kmer import canonical_u64, kmers_from_reads
from repro.dna.reads import ReadBatch
from repro.graph.dbg import N_SLOTS
from repro.parallel import (
    WorkerCrashed,
    WorkerFailed,
    concurrent_insert_processes,
    run_workers,
)

CFG = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)


def assert_graphs_identical(a, b):
    assert a.k == b.k
    assert all(np.array_equal(pa, pb) for pa, pb in zip(a.planes, b.planes))
    assert np.array_equal(a.counts, b.counts)


# -- backend equivalence ----------------------------------------------------------


def test_all_backends_build_identical_graphs(genomic_batch):
    serial = ParaHash(CFG).build_graph(genomic_batch)
    threaded = ParaHash(
        CFG.with_(backend="threads", n_workers=2)
    ).build_graph(genomic_batch)
    procs = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, threaded.graph)
    assert_graphs_identical(serial.graph, procs.graph)


def test_process_backend_worker_counts_agree(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    for w in (1, 3):
        result = ParaHash(
            CFG.with_(backend="processes", n_workers=w)
        ).build_graph(clean_batch)
        assert_graphs_identical(serial.graph, result.graph)


def test_process_backend_disk_artifacts_match_serial(clean_batch, tmp_path):
    """workdir spill files + output_dir subgraphs are byte-identical."""
    outs = {}
    for backend in ("serial", "processes"):
        work = tmp_path / backend / "work"
        out = tmp_path / backend / "out"
        cfg = CFG if backend == "serial" else CFG.with_(
            backend="processes", n_workers=2
        )
        result = ParaHash(cfg).build_graph(
            clean_batch, workdir=work, output_dir=out
        )
        outs[backend] = (result, out)
    serial_result, serial_out = outs["serial"]
    procs_result, procs_out = outs["processes"]
    assert_graphs_identical(serial_result.graph, procs_result.graph)
    serial_files = sorted(p.name for p in serial_out.iterdir())
    assert serial_files == sorted(p.name for p in procs_out.iterdir())
    assert serial_files  # the run actually wrote subgraphs
    for name in serial_files:
        assert (serial_out / name).read_bytes() == (
            procs_out / name
        ).read_bytes()


def test_process_backend_reports_per_worker_records(genomic_batch):
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    records = result.worker_records
    assert set(records) == {"proc0", "proc1"}
    assert sum(len(r.partitions) for r in records.values()) > 0
    assert all(r.items_processed > 0 for r in records.values())


# -- crash containment ------------------------------------------------------------


def _vanishing_worker(worker_id: int, victim: int):
    if worker_id == victim:
        os._exit(17)  # simulate a segfault / OOM kill: no result, no traceback
    time.sleep(0.05)
    return worker_id


def _raising_worker(worker_id: int, victim: int):
    if worker_id == victim:
        raise RuntimeError(f"worker {worker_id} exploded on purpose")
    time.sleep(0.05)
    return worker_id


def test_crashed_worker_surfaces_without_hanging():
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        run_workers(_vanishing_worker, 3, args=(1,), timeout=30.0)
    # The whole point: a vanished worker must not block until timeout.
    assert time.perf_counter() - t0 < 20.0


def test_raising_worker_carries_traceback():
    with pytest.raises(WorkerFailed) as excinfo:
        run_workers(_raising_worker, 3, args=(2,), timeout=30.0)
    assert "exploded on purpose" in str(excinfo.value)


def test_run_workers_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_workers(_raising_worker, 0)


# -- cross-process state-transfer protocol ----------------------------------------


def test_cross_process_cas_matches_serial_insert(genomic_batch, rng):
    k = 21
    kmers = canonical_u64(kmers_from_reads(genomic_batch.codes, k), k)
    slots = rng.integers(0, N_SLOTS, size=kmers.size, dtype=np.int64)
    capacity = 1 << 14

    serial = ConcurrentHashTable(capacity=capacity, k=k)
    serial.insert_batch(kmers, slots)
    expected = serial.to_graph()

    graph, stats = concurrent_insert_processes(
        kmers, slots, k=k, capacity=capacity, n_workers=3
    )
    assert_graphs_identical(expected, graph)
    assert len(stats) == 3
    assert sum(s.ops for s in stats) == kmers.size


# -- big-k (k > 31): two-word shm tables end-to-end -------------------------------

BIGK_CFG = ParaHashConfig(k=45, p=15, n_partitions=16, n_input_pieces=4)


def test_bigk_processes_matches_serial_pipelined(genomic_batch):
    serial = ParaHash(BIGK_CFG).build_graph(genomic_batch)
    procs = ParaHash(
        BIGK_CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert serial.graph.equals(procs.graph)


def test_bigk_processes_disk_artifacts_match_serial(clean_batch, tmp_path):
    """Big-k workdir + output_dir artifacts are byte-identical too."""
    outs = {}
    for backend in ("serial", "processes"):
        work = tmp_path / backend / "work"
        out = tmp_path / backend / "out"
        cfg = BIGK_CFG if backend == "serial" else BIGK_CFG.with_(
            backend="processes", n_workers=2
        )
        result = ParaHash(cfg).build_graph(
            clean_batch, workdir=work, output_dir=out
        )
        outs[backend] = (result, out)
    serial_result, serial_out = outs["serial"]
    procs_result, procs_out = outs["processes"]
    assert serial_result.graph.equals(procs_result.graph)
    serial_files = sorted(p.name for p in serial_out.iterdir())
    assert serial_files == sorted(p.name for p in procs_out.iterdir())
    assert serial_files
    for name in serial_files:
        assert (serial_out / name).read_bytes() == (
            procs_out / name
        ).read_bytes()


def test_bigk_processes_fallback_on_undersized_tables(clean_batch):
    """A breached Property-1 estimate regrows locally, graph unchanged."""
    from repro.core.estimator import SizingPolicy

    class Undersized(SizingPolicy):
        def capacity_for(self, n_kmers: int) -> int:
            return 32

    serial = ParaHash(BIGK_CFG).build_graph(clean_batch)
    procs = ParaHash(BIGK_CFG.with_(
        backend="processes", n_workers=2, sizing=Undersized(),
    )).build_graph(clean_batch)
    assert serial.graph.equals(procs.graph)


def test_cross_process_cas_2w_matches_serial_insert(genomic_batch, rng):
    from repro.bigk import TwoWordHashTable, canonical2w_with_flip
    from repro.bigk.kmer2w import kmers2w_from_reads

    k = 45
    hi, lo = kmers2w_from_reads(genomic_batch.codes, k)
    hi, lo, _ = canonical2w_with_flip(hi, lo, k)
    hi, lo = hi[:5000], lo[:5000]
    slots = rng.integers(0, N_SLOTS, size=hi.size, dtype=np.int64)
    capacity = 1 << 14

    serial = TwoWordHashTable(capacity, k)
    serial.insert_batch(hi, lo, slots)
    expected = serial.to_graph()

    graph, stats = concurrent_insert_processes(
        hi, lo, slots, k=k, capacity=capacity, n_workers=3
    )
    assert expected.equals(graph)
    assert len(stats) == 3
    assert sum(s.ops for s in stats) == hi.size


def test_cross_process_cas_2w_rejects_small_k():
    # Two key planes at a one-word k: the plane count must match k.
    with pytest.raises(ValueError, match="1 key plane"):
        concurrent_insert_processes(
            np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64),
            np.zeros(1, dtype=np.int64), k=21, capacity=16, n_workers=1,
        )


@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("k", [29, 30, 31, 33, 61, 63])
def test_backend_matches_oracle_at_key_width_edges(rng, tmp_path, backend,
                                                   k):
    """Both parallel backends equal the oracle of the key width where the
    packing tricks overflow: the top of one-word keys, both ends of
    two-word keys.  Each build runs in memory and disk-backed (Step 1
    partitions written to a workdir and read back)."""
    from repro.bigk.store import build_reference_bigk_slow
    from repro.graph.build import build_reference_graph

    batch = ReadBatch(codes=rng.integers(0, 4, size=(24, k + 30),
                                         dtype=np.uint8))
    cfg = ParaHashConfig(k=k, p=11, n_partitions=4, backend=backend,
                         n_workers=2)
    if k <= 31:
        expected = build_reference_graph(batch, k)
    else:
        expected = build_reference_bigk_slow(batch, k)
    for workdir in (None, tmp_path / "work"):
        graph = ParaHash(cfg).build_graph(batch, workdir=workdir).graph
        if k <= 31:
            assert_graphs_identical(expected, graph)
        else:
            assert graph.equals(expected)


# -- CI backend x k matrix leg ------------------------------------------------------
#
# In CI the `matrix` suite runs this module with REPRO_MATRIX_K and
# REPRO_MATRIX_BACKEND set (k in {21, 45} x backend in {serial,
# threads, processes}); locally the k=45 cell on the processes
# backend runs by default.

MATRIX_K = int(os.environ.get("REPRO_MATRIX_K", "45"))
MATRIX_BACKEND = os.environ.get("REPRO_MATRIX_BACKEND", "processes")


def test_matrix_cell_cli_build_matches_serial(genomic_batch, tmp_path):
    """`repro build` at the (k, backend) cell equals the serial build."""
    from repro.cli import main as cli_main
    from repro.dna.io import save_read_batch
    from repro.graph.compare import compare_graphs

    k, backend = MATRIX_K, MATRIX_BACKEND
    reads_file = tmp_path / "reads.fastq"
    save_read_batch(reads_file, genomic_batch, fmt="fastq")
    p = "9" if k <= 31 else "15"
    base = ["build", "--input", str(reads_file), "--k", str(k), "--p", p,
            "--partitions", "16"]
    serial_out = tmp_path / "serial.phdbg"
    assert cli_main(base + ["--backend", "serial",
                            "--output", str(serial_out)]) == 0
    cell_out = tmp_path / "cell.phdbg"
    argv = base + ["--backend", backend, "--output", str(cell_out)]
    if backend != "serial":
        argv += ["--workers", "2"]
    assert cli_main(argv) == 0

    from repro.graph.serialize import load_graph

    a, b = load_graph(serial_out), load_graph(cell_out)
    comparison = compare_graphs(a, b)
    assert comparison.jaccard == 1.0
    assert comparison.n_only_a == comparison.n_only_b == 0
    assert np.array_equal(a.counts, b.counts)


# -- configuration plumbing -------------------------------------------------------


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError):
        ParaHashConfig(k=21, p=9, backend="gpu")
    with pytest.raises(ValueError):
        ParaHashConfig(k=21, p=9, n_workers=-1)


def test_config_worker_resolution():
    assert "processes" in BACKENDS
    assert ParaHashConfig(k=21, p=9, n_workers=6).workers() == 6
    auto = ParaHashConfig(k=21, p=9).workers()
    assert auto == max(1, os.cpu_count() or 1)
