"""The process-parallel execution backend (``backend="processes"``).

Runs both ParaHash steps across worker *processes* so the pipeline
scales with cores instead of being serialized by the GIL.  One worker
pool runs both steps as the §III-E streaming pipeline, with no global
barrier between them:

* **Step 1** — the read matrix is copied once into shared memory and
  split into chunks; workers claim chunks from a
  :class:`~repro.concurrentsub.workqueue.ProcessTicketQueue` (the
  paper's ``cns`` work stealing) and append each chunk's superkmer
  blocks to their own spill files.  Grouping the spill files by
  partition id — the minimizer-hash class — is the merge.  Each worker
  then announces its spill manifest to the parent through the pool's
  event channel.
* **Step 2** — the parent's merger reacts to the manifests inline with
  the result-poll loop, finalizing partitions one at a time: merge the
  partition's spills, create its shared-memory hash-table segment
  (sized by Property 1 from the exact per-partition kmer counts Step 1
  reported), publish the work order on a
  :class:`~repro.concurrentsub.workqueue.ProcessWorkQueue`.  Workers
  that finished Step 1 fall through to claiming those partitions and
  run the vectorized insert kernel directly into the shared buffers,
  so early partitions are hashed while the parent still finalizes
  later ones and slower workers still partition reads.  The parent
  then reads each finished table *in place* — result transfer is
  zero-copy, nothing big is pickled.

A table whose Property-1 estimate is breached (``TableFullError``)
falls back to a worker-local regrown table whose graph is returned
through the result queue.

:func:`concurrent_insert_processes` additionally exercises the
§III-C3 state machine itself across processes — several workers CAS
the *same* table's occupancy flags through
:class:`~repro.parallel.atomics_mp.ProcessAtomicInt64Array` — which is
what validates that the state-transfer protocol is sound on genuinely
concurrent memory, not merely under the GIL.

The driver and the CAS validation path run at any supported k: the
table segments carry the W key planes of :func:`repro.dna.kmer.key_planes`
(``keys`` for ``k <= 31``, the split-key ``keys_hi``/``keys_lo`` for
``33 <= k <= 63``) and one Step-2 job function serves both widths.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..concurrentsub.workqueue import (
    ProcessTicketQueue,
    ProcessWorkQueue,
    WorkerRecord,
)
from ..core.estimator import next_power_of_two
from ..core.hashtable import HashStats, TableFullError
from ..dna.kmer import key_planes
from ..dna.reads import ReadBatch
from ..graph.merge import merge_subgraphs
from ..graph.serialize import save_subgraphs
from ..msp.partitioner import (
    SpillWriterSet,
    load_partition_group,
    merge_spill_files,
    partition_reads,
    spill_groups,
)
from .atomics_mp import ProcessAtomicInt64Array, create_lock_bundle
from .pool import default_context, run_workers
from .shm import (
    HEADER_N_OCCUPIED,
    SegmentSpec,
    attach_read_batch,
    attach_segment,
    create_segment,
    create_table_segment,
    share_read_batch,
    table_over_segment,
)


@dataclass(frozen=True)
class _Step2Job:
    """One partition's work order, addressable by ticket index."""

    partition: int
    k: int
    table_spec: SegmentSpec
    group: tuple[str, ...]


# -- worker entry points (top-level: picklable under spawn) ----------------------


def _step1_worker(worker_id: int, batch_spec: SegmentSpec,
                  chunk_bounds: list[tuple[int, int]],
                  tickets: ProcessTicketQueue, k: int, p: int,
                  n_partitions: int, spill_dir: str) -> dict:
    """Claim read chunks, partition them, spill per-worker files."""

    def consume(batch: ReadBatch, spills: SpillWriterSet) -> dict:
        # Inner frame: every view over the shared codes matrix dies
        # when this returns, so the segment can close cleanly.
        claimed: list[int] = []
        n_superkmers = 0
        n_reads = 0
        kmers_per_partition = np.zeros(n_partitions, dtype=np.int64)
        while True:
            ids = tickets.claim()
            if not ids:
                break
            for chunk_id in ids:
                lo, hi = chunk_bounds[chunk_id]
                piece = ReadBatch(codes=batch.codes[lo:hi])
                result = partition_reads(piece, k, p, n_partitions)
                spills.write_result(result)
                n_superkmers += len(result.superkmers)
                n_reads += piece.n_reads
                kmers_per_partition += result.kmers_per_partition()
                claimed.append(chunk_id)
        return {
            "claimed": claimed,
            "n_superkmers": n_superkmers,
            "n_reads": n_reads,
            "kmers_per_partition": kmers_per_partition.tolist(),
        }

    batch, seg = attach_read_batch(batch_spec)
    spills = SpillWriterSet(spill_dir, worker_id, k, n_partitions)
    try:
        report = consume(batch, spills)
    finally:
        paths = spills.close()
        del batch
        seg.close()
    report["spills"] = {
        partition: str(path) for partition, path in paths.items()
    }
    return report


def _process_step2_job(job: _Step2Job, sizing, preaggregate: bool) -> dict:
    """Fill one partition's shared table in place; returns its payload.

    Width-agnostic: ``table_over_segment`` hands back the table over
    the segment's W key planes for ``job.k``, and the observation
    kernels emit the same W planes.  The payload (stats + optional
    fallback graph) is identical at both widths.
    """
    from ..core.subgraph import (
        block_observations,
        build_subgraph,
        preaggregate_observations,
    )

    block = load_partition_group([Path(s) for s in job.group], job.k)
    payload: dict = {"partition": job.partition,
                     "n_kmers": block.total_kmers()}
    seg = attach_segment(job.table_spec)
    table = table_over_segment(seg, job.k, fresh=True)
    try:
        *planes, slots = block_observations(block)
        counts = None
        if preaggregate:
            *planes, slots, counts = preaggregate_observations(*planes, slots)
        table.insert_batch(*planes, slots, counts=counts)
        seg["header"][HEADER_N_OCCUPIED] = table.n_occupied
        payload["stats"] = table.stats
        payload["fallback"] = None
    except TableFullError:
        # Property-1 estimate breached: regrow locally and ship
        # the (rare) oversized result through the queue instead.
        result = build_subgraph(block, policy=sizing,
                                preaggregate=preaggregate)
        payload["stats"] = result.stats
        payload["fallback"] = result.graph
    finally:
        table.detach_views()
        seg.close()
    return payload


def _pipeline_worker(worker_id: int, batch_spec: SegmentSpec,
                     chunk_bounds: list[tuple[int, int]],
                     tickets: ProcessTicketQueue, ready: ProcessWorkQueue,
                     k: int, p: int, n_partitions: int, spill_dir: str,
                     sizing, preaggregate: bool, *, emit) -> dict:
    """Both steps in one process: partition, announce, then hash.

    The worker drains Step-1 chunk tickets exactly like
    :func:`_step1_worker`, emits its spill manifest through the pool's
    event channel (the parent's merger is listening), and immediately
    starts claiming ready partitions — which the merger publishes as
    soon as *every* worker's manifest has landed, i.e. while this
    worker's slower peers may still be spilling.
    """
    report = _step1_worker(worker_id, batch_spec, chunk_bounds, tickets,
                           k, p, n_partitions, spill_dir)
    emit(("spills", report))
    out: list[dict] = []
    while True:
        jobs = ready.claim()
        if not jobs:
            break
        for job in jobs:
            out.append(_process_step2_job(job, sizing, preaggregate))
    return {"step2": out}


# -- the driver ------------------------------------------------------------------


class _PipelineMerger:
    """Parent-side Step-1→Step-2 handoff for the pipelined backend.

    Collects every worker's spill manifest (delivered through the
    pool's event channel, so this runs inline with the parent's result
    poll — single-threaded, no locks needed despite feeding a
    cross-process queue).  Once the last manifest lands, partitions are
    finalized ONE AT A TIME — merge the partition's spill group,
    create its shared table segment, publish its work order — so
    workers hash early partitions while later ones are still being
    finalized.  The ready queue is closed after the last publication;
    a merger failure propagates out of ``run_workers`` and tears the
    pool down, so workers can never hang on an unclosed queue.
    """

    def __init__(self, cfg, n_workers: int, ready: ProcessWorkQueue,
                 workdir: str | Path | None) -> None:
        self.cfg = cfg
        self.n_workers = n_workers
        self.ready = ready
        self.workdir = workdir
        self.reports: dict[int, dict] = {}
        self.segments: dict[int, object] = {}
        self.kmers_per_partition = np.zeros(cfg.n_partitions, dtype=np.int64)
        self.live: list[int] = []
        self.n_superkmers = 0
        self.partition_bytes = 0
        self.io_seconds = 0.0
        self.spills_done_at: float | None = None

    def on_event(self, worker_id: int, payload) -> None:
        kind, report = payload
        if kind != "spills":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected pipeline event {kind!r}")
        self.reports[worker_id] = report
        if len(self.reports) == self.n_workers:
            self._finalize_all()

    def _finalize_all(self) -> None:
        from ..msp.binio import concat_partition_files

        cfg = self.cfg
        self.spills_done_at = time.perf_counter()
        reports = [self.reports[w] for w in range(self.n_workers)]
        self.n_superkmers = sum(r["n_superkmers"] for r in reports)
        for r in reports:
            self.kmers_per_partition += np.asarray(  # checks: allow[R2] merger state touched only by the parent's event thread
                r["kmers_per_partition"], dtype=np.int64
            )
        groups = spill_groups([r["spills"] for r in reports],
                              cfg.n_partitions)
        self.partition_bytes = sum(
            os.path.getsize(path) for group in groups for path in group
        )
        self.live = [
            part for part in range(cfg.n_partitions)
            if self.kmers_per_partition[part] > 0
        ]
        # Heaviest partitions first (LPT-style): the long jobs start
        # while the parent is still finalizing the light tail.  Result
        # assembly re-orders by partition id, so the graph is unchanged.
        order = sorted(
            self.live, key=lambda part: -int(self.kmers_per_partition[part])
        )
        merged_bytes = 0
        try:
            for part in order:
                sources = groups[part]
                if self.workdir is not None:
                    t_io = time.perf_counter()
                    dest = Path(self.workdir) / f"partition_{part:04d}.phsk"
                    concat_partition_files(dest, sources, k=cfg.k)
                    self.io_seconds += time.perf_counter() - t_io  # checks: allow[R2] merger state touched only by the parent's event thread
                    sources = [dest]
                    merged_bytes += os.path.getsize(dest)
                capacity = next_power_of_two(max(2, cfg.sizing.capacity_for(
                    max(1, int(self.kmers_per_partition[part]))
                )))
                seg = create_table_segment(capacity, cfg.k)  # checks: allow[R6] ownership moves to self.segments; unlink_segments() runs in the pipeline teardown
                self.segments[part] = seg
                self.ready.publish(_Step2Job(
                    partition=part, k=cfg.k, table_spec=seg.spec,
                    group=tuple(str(p) for p in sources),
                ))
            if self.workdir is not None:
                # Serial disk-backed runs leave one canonical file per
                # partition, empty partitions included — match that
                # layout file-for-file.
                t_io = time.perf_counter()
                for part in range(cfg.n_partitions):
                    if part in self.segments:
                        continue
                    dest = Path(self.workdir) / f"partition_{part:04d}.phsk"
                    concat_partition_files(dest, groups[part], k=cfg.k)
                    merged_bytes += os.path.getsize(dest)
                self.io_seconds += time.perf_counter() - t_io  # checks: allow[R2] merger state touched only by the parent's event thread
                self.partition_bytes = merged_bytes
        finally:
            self.ready.close()

    def unlink_segments(self) -> None:
        for seg in self.segments.values():
            seg.unlink()
        self.segments.clear()


def build_graph_processes(
    reads: ReadBatch,
    config,
    workdir: str | Path | None = None,
    output_dir: str | Path | None = None,
):
    """Run the two-step workflow across worker processes.

    Mirrors :meth:`repro.core.parahash.ParaHash.build_graph` (same
    result type, graph bit-for-bit identical to the serial backend) but
    executes Step 1 and Step 2 on ``config.workers()`` processes as one
    streaming pipeline: a single pool runs both steps with no barrier
    between them, and :class:`_PipelineMerger` hands partitions from
    one step to the other.  Workers claim one read chunk, then one
    ready partition, per queue visit.  An input without reads returns
    the empty result without starting a pool.
    """
    from ..core.parahash import ParaHashResult, StageTimings

    cfg = config
    n_workers = cfg.workers()
    n_chunks = max(cfg.n_input_pieces, 2 * n_workers)
    bounds_arr = np.linspace(0, reads.n_reads, n_chunks + 1).astype(int)
    chunk_bounds = [
        (int(bounds_arr[i]), int(bounds_arr[i + 1]))
        for i in range(n_chunks)
        if bounds_arr[i + 1] > bounds_arr[i]
    ]
    if not chunk_bounds:
        return _empty_result(cfg, workdir)
    ctx = default_context()

    tmp: tempfile.TemporaryDirectory | None = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-parallel-")
        spill_dir = Path(tmp.name)
    else:
        spill_dir = Path(workdir) / "spill"
        spill_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    try:
        tickets = ProcessTicketQueue(len(chunk_bounds), ctx)
        ready = ProcessWorkQueue(cfg.n_partitions, ctx=ctx,
                                 claim_timeout=600.0)
        merger = _PipelineMerger(cfg, n_workers, ready, workdir)
        batch_seg = share_read_batch(reads)
        try:
            try:
                results = run_workers(
                    _pipeline_worker, n_workers, ctx=ctx,
                    args=(batch_seg.spec, chunk_bounds, tickets, ready,
                          cfg.k, cfg.p, cfg.n_partitions, str(spill_dir),
                          cfg.sizing, cfg.preaggregate),
                    on_event=merger.on_event,
                )
            finally:
                batch_seg.unlink()
                # On an error path some workers may have been terminated
                # between a reservation and its item pickup; aborting
                # makes any racing claim return instead of wait out its
                # timeout.
                ready.abort()

            by_partition: dict[int, dict] = {}
            for result in results:
                for payload in result["step2"]:
                    by_partition[payload["partition"]] = payload
            missing = [p for p in merger.live if p not in by_partition]
            if missing:  # pragma: no cover - queue drain guarantees coverage
                raise RuntimeError(
                    f"partitions {missing} were published but never hashed"
                )
            subgraphs: list = []
            stats = HashStats()
            for part in merger.live:
                payload = by_partition[part]
                stats = stats.merged_with(payload["stats"])
                if payload["fallback"] is not None:
                    subgraphs.append(payload["fallback"])
                    continue
                seg = merger.segments[part]
                table = table_over_segment(seg, cfg.k, fresh=False)
                table.n_occupied = int(seg["header"][HEADER_N_OCCUPIED])
                subgraphs.append(table.to_graph())
                table.detach_views()
        finally:
            merger.unlink_segments()
        t2 = time.perf_counter()

        io_seconds = merger.io_seconds
        if output_dir is not None and subgraphs:
            t_io = time.perf_counter()
            save_subgraphs(output_dir, subgraphs)
            io_seconds += time.perf_counter() - t_io

        spills_done = merger.spills_done_at or t2
        graph = merge_subgraphs(subgraphs, cfg.k)
        step1_reports = [merger.reports[w] for w in sorted(merger.reports)]
        return ParaHashResult(
            graph=graph,
            subgraphs=subgraphs,
            hash_stats=stats,
            timings=StageTimings(
                msp_seconds=spills_done - t0,
                hashing_seconds=max(0.0,
                                    (t2 - spills_done) - merger.io_seconds),
                io_seconds=io_seconds,
            ),
            n_superkmers=merger.n_superkmers,
            n_kmers=int(merger.kmers_per_partition.sum()),
            partition_bytes=merger.partition_bytes,
            config=cfg,
            worker_records=_worker_records(
                step1_reports, [r["step2"] for r in results]
            ),
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def _empty_result(cfg, workdir: str | Path | None):
    """The result of a build over zero reads.

    With ``workdir`` set this still writes the layout of a serial
    disk-backed run: one (empty) canonical file per partition.
    """
    from ..core.parahash import ParaHashResult, StageTimings

    t0 = time.perf_counter()
    partition_bytes = 0
    if workdir is not None:
        merged = merge_spill_files([[] for _ in range(cfg.n_partitions)],
                                   workdir, cfg.k)
        partition_bytes = sum(os.path.getsize(path) for path in merged)
    return ParaHashResult(
        graph=merge_subgraphs([], cfg.k),
        subgraphs=[],
        hash_stats=HashStats(),
        timings=StageTimings(io_seconds=time.perf_counter() - t0),
        n_superkmers=0,
        n_kmers=0,
        partition_bytes=partition_bytes,
        config=cfg,
    )


def _worker_records(step1_reports: list[dict],
                    step2_payloads: list[list[dict]]) -> dict[str, WorkerRecord]:
    """Fold both steps' reports into §III-E-style worker records."""
    records: dict[str, WorkerRecord] = {}
    for w, report in enumerate(step1_reports):
        records[f"proc{w}"] = WorkerRecord(
            name=f"proc{w}",
            partitions=[],
            items_processed=report["n_reads"],
        )
    for w, payloads in enumerate(step2_payloads):
        record = records.setdefault(f"proc{w}", WorkerRecord(name=f"proc{w}"))
        for payload in payloads:
            record.partitions.append(payload["partition"])
            record.items_processed += payload["n_kmers"]
    return records


# -- cross-process CAS validation path -------------------------------------------


def _publish_final_state(table_seg, flags_seg) -> None:
    """Fold the quiescent flags plane into the table's int8 state mirror.

    Protocol-agnostic: under ``locked`` the flags hold state values and
    every LOCKED resolved to OCCUPIED before the workers joined; under
    ``lockfree`` they hold key/fingerprint tags.  Either way a non-zero
    word is exactly a published entry.
    """
    from ..core.hashtable import OCCUPIED

    flags = flags_seg["flags"]
    table_seg["state"][:] = ((flags != 0) * OCCUPIED).astype(np.int8)


def concurrent_insert_processes(
    *arrays: np.ndarray,
    k: int,
    capacity: int,
    n_workers: int,
    n_stripes: int = 64,
    protocol: str = "locked",
):
    """Insert ``(*planes, slots)`` observations into ONE table from several processes.

    This is the insert protocol on genuinely concurrent memory: every
    worker runs the per-operation state machine — CAS EMPTY→LOCKED /
    write-key / publish-OCCUPIED under ``protocol="locked"``, or the
    single CAS-publish under ``protocol="lockfree"`` — against the same
    shared-memory occupancy plane.  For two-word keys (``k > 31``) both
    key words are written inside the claim window (the multi-word case
    the state-transfer protocol exists for).  ``arrays`` holds the
    ``W`` key planes for ``k`` then the slots.  Returns the resulting
    subgraph and the per-worker stats.  Used by the equivalence tests
    (the outcome must match a serial ``insert_batch``); the production
    pipeline instead gives each partition to exactly one process, as
    the paper does per subgraph.
    """
    n_planes = key_planes(k)
    if len(arrays) != n_planes + 1:
        raise ValueError(
            f"k={k} needs {n_planes} key plane(s) and slots, "
            f"got {len(arrays)} arrays"
        )
    *planes, slots = arrays
    planes = [np.ascontiguousarray(p, dtype=np.uint64).ravel() for p in planes]
    slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
    if any(p.shape != slots.shape for p in planes):
        raise ValueError("key planes and slots must be parallel arrays")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    ctx = default_context()
    cap = next_power_of_two(max(2, capacity))
    # Each `with` owns its segment from the moment of creation: if the
    # flags segment or a lock bundle fails to build, the table segment
    # is already inside its context and still unlinks (no shm leak on
    # partially-constructed runs).
    with create_table_segment(cap, k) as table_seg, \
            create_segment([("flags", (cap,), "int64")]) as flags_seg:
        state_locks = create_lock_bundle(ctx, n_stripes)
        count_locks = create_lock_bundle(ctx, n_stripes)
        bounds = np.linspace(0, slots.size, n_workers + 1).astype(int).tolist()
        stats = run_workers(
            _cas_worker, n_workers, ctx=ctx,
            args=(table_seg.spec, flags_seg.spec, state_locks, count_locks,
                  planes, slots, bounds, k, protocol),
        )
        # Publish the final flags into the table's int8 mirror, then
        # read the graph straight out of shared memory.
        _publish_final_state(table_seg, flags_seg)
        table = table_over_segment(table_seg, k, fresh=False,
                                   protocol=protocol)
        graph = table.to_graph()
        table.detach_views()
        return graph, stats


def _cas_worker(worker_id: int, table_spec: SegmentSpec,
                flags_spec: SegmentSpec, state_locks, count_locks,
                planes: list[np.ndarray], slots: np.ndarray,
                bounds: list[int], k: int, protocol: str) -> HashStats:
    """One process of the cross-process state-machine run."""
    seg = attach_segment(table_spec)
    flags_seg = attach_segment(flags_spec)
    table = table_over_segment(seg, k, fresh=True, protocol=protocol)
    # Swap the thread-path machinery for its cross-process twins: the
    # occupancy flags live in the shared int64 plane and every stripe
    # lock is a multiprocessing lock, so the CAS window and the counter
    # updates are mutually exclusive across processes.
    table._atomic_state = ProcessAtomicInt64Array(flags_seg["flags"],
                                                  state_locks)
    table._count_locks = list(count_locks)
    local = HashStats()
    b0, b1 = bounds[worker_id], bounds[worker_id + 1]
    try:
        for i in range(b0, b1):
            # The per-op protocol takes the kmer as one integer: fold
            # the planes back, most significant first, 64 bits apiece.
            kmer = 0
            for plane in planes:
                kmer = (kmer << 64) | int(plane[i])
            table.insert_one_threadsafe(kmer, int(slots[i]), local)
    finally:
        table.detach_views()
        seg.close()
        flags_seg.close()
    return local
