"""The process-parallel execution backend (``backend="processes"``).

Runs both ParaHash steps across worker *processes* so the pipeline
scales with cores instead of being serialized by the GIL:

* **Step 1** — the read matrix is copied once into shared memory and
  split into chunks; workers claim chunks from a
  :class:`~repro.concurrentsub.workqueue.ProcessTicketQueue` (the
  paper's ``cns`` work stealing, with weighted dispatch) and append
  each chunk's superkmer blocks to their own spill files.  Grouping
  the spill files by partition id — the minimizer-hash class — is the
  merge.
* **Step 2** — the parent pre-creates one shared-memory hash-table
  segment per non-empty partition (sized by Property 1 from the exact
  per-partition kmer counts Step 1 reported); workers claim partitions,
  read their spill group, and run the vectorized insert kernel directly
  into the shared buffers.  The parent then reads each finished table
  *in place* — result transfer is zero-copy, nothing big is pickled.

With ``config.pipeline`` (the default) the two steps run in ONE worker
pool as the §III-E streaming pipeline instead of two pools split by a
global barrier: each worker finishes its share of Step 1, announces its
spill manifest to the parent through the pool's event channel, and
falls through to claiming Step-2 partitions from a
:class:`~repro.concurrentsub.workqueue.ProcessWorkQueue`.  The parent's
merger reacts to the manifests inline with the result-poll loop —
finalizing partitions one at a time (merge spills, create the shared
table segment, publish the work order) so early partitions are being
hashed by some workers while the parent is still finalizing later ones
and slower workers are still partitioning reads.  ``config.calibrate``
sizes both claim weights from a measured
:mod:`repro.hetsim.device` fit of this host.

A table whose Property-1 estimate is breached (``TableFullError``)
falls back to a worker-local regrown table whose graph is returned
through the result queue.

:func:`concurrent_insert_processes` additionally exercises the
§III-C3 state machine itself across processes — several workers CAS
the *same* table's occupancy flags through
:class:`~repro.parallel.atomics_mp.ProcessAtomicInt64Array` — which is
what validates that the state-transfer protocol is sound on genuinely
concurrent memory, not merely under the GIL.

Both drivers and the CAS validation path run at any ``k <= 63``: for
``k > 31`` the table segments carry the split-key two-word planes
(``keys_hi``/``keys_lo``), Step 2 runs the :mod:`repro.bigk` kernels,
and :func:`concurrent_insert_processes_2w` exercises the multi-word
publish (both key words written inside the LOCKED window) across
processes.
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
from ..dna.reads import ReadBatch
from ..graph.dbg import DeBruijnGraph, empty_graph
from ..graph.merge import merge_disjoint
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
                  tickets: ProcessTicketQueue, weights: list[int], k: int,
                  p: int, n_partitions: int, spill_dir: str) -> dict:
    """Claim read chunks, partition them, spill per-worker files."""

    def consume(batch: ReadBatch, spills: SpillWriterSet) -> dict:
        # Inner frame: every view over the shared codes matrix dies
        # when this returns, so the segment can close cleanly.
        weight = weights[worker_id]
        claimed: list[int] = []
        n_superkmers = 0
        n_reads = 0
        kmers_per_partition = np.zeros(n_partitions, dtype=np.int64)
        while True:
            ids = tickets.claim(weight)
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

    Width-agnostic: ``table_over_segment`` hands back the one- or
    two-word table per ``job.k``, and the observation kernels are
    selected to match — the payload protocol (stats + optional
    fallback graph) is identical either way.
    """
    from ..core.subgraph import (
        block_observations,
        build_subgraph,
        preaggregate_observations,
    )

    if job.k > 31:
        return _process_step2_job_2w(job, sizing, preaggregate)
    block = load_partition_group([Path(s) for s in job.group], job.k)
    payload: dict = {"partition": job.partition,
                     "n_kmers": block.total_kmers()}
    seg = attach_segment(job.table_spec)
    table = table_over_segment(seg, job.k, fresh=True)
    try:
        vertex_ids, slots = block_observations(block)
        counts = None
        if preaggregate:
            vertex_ids, slots, counts = preaggregate_observations(
                vertex_ids, slots
            )
        table.insert_batch(vertex_ids, slots, counts=counts)
        seg["header"][HEADER_N_OCCUPIED] = table.n_occupied
        payload["stats"] = table.stats
        payload["fallback"] = None
    except TableFullError:
        # Property-1 estimate breached: regrow locally and ship
        # the (rare) oversized result through the queue instead.
        result = build_subgraph(block, policy=sizing, n_threads=1,
                                preaggregate=preaggregate)
        payload["stats"] = result.stats
        payload["fallback"] = result.graph
    finally:
        table.detach_views()
        seg.close()
    return payload


def _process_step2_job_2w(job: _Step2Job, sizing, preaggregate: bool) -> dict:
    """Big-k (k > 31) twin of :func:`_process_step2_job`.

    Same shared-table-in-place protocol, with the split-key kernels:
    observations come from :func:`block_observations_2w`, duplicates
    pre-aggregate over ``(hi, lo, slot)`` triples, and the
    ``TableFullError`` fallback regrows through
    :func:`build_subgraph_2w` locally.
    """
    from ..bigk.construct import (
        block_observations_2w,
        build_subgraph_2w,
        preaggregate_observations_2w,
    )

    block = load_partition_group([Path(s) for s in job.group], job.k)
    payload: dict = {"partition": job.partition,
                     "n_kmers": block.total_kmers()}
    seg = attach_segment(job.table_spec)
    table = table_over_segment(seg, job.k, fresh=True)
    try:
        hi, lo, slots = block_observations_2w(block)
        counts = None
        if preaggregate:
            hi, lo, slots, counts = preaggregate_observations_2w(
                hi, lo, slots
            )
        table.insert_batch(hi, lo, slots, counts=counts)
        seg["header"][HEADER_N_OCCUPIED] = table.n_occupied
        payload["stats"] = table.stats
        payload["fallback"] = None
    except TableFullError:
        result = build_subgraph_2w(block, policy=sizing,
                                   preaggregate=preaggregate)
        payload["stats"] = result.stats
        payload["fallback"] = result.graph
    finally:
        table.detach_views()
        seg.close()
    return payload


def _step2_worker(worker_id: int, jobs: list[_Step2Job],
                  tickets: ProcessTicketQueue, weights: list[int],
                  sizing, preaggregate: bool) -> list[dict]:
    """Claim partitions and fill their shared tables in place."""
    weight = weights[worker_id]
    out: list[dict] = []
    while True:
        ids = tickets.claim(weight)
        if not ids:
            break
        for ticket in ids:
            out.append(_process_step2_job(jobs[ticket], sizing, preaggregate))
    return out


def _pipeline_worker(worker_id: int, batch_spec: SegmentSpec,
                     chunk_bounds: list[tuple[int, int]],
                     tickets: ProcessTicketQueue, weights: list[int],
                     step2_weights: list[int], ready: ProcessWorkQueue,
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
                           weights, k, p, n_partitions, spill_dir)
    emit(("spills", report))
    weight = step2_weights[worker_id]
    out: list[dict] = []
    while True:
        jobs = ready.claim(weight)
        if not jobs:
            break
        for job in jobs:
            out.append(_process_step2_job(job, sizing, preaggregate))
    return {"step2": out}


def _merge_partition_subgraphs(subgraphs, k: int):
    """Union the per-partition subgraphs, one- or two-word per ``k``."""
    if k > 31:
        from ..bigk.construct import merge_bigk_disjoint

        return merge_bigk_disjoint(subgraphs, k=k)
    nonempty = [g for g in subgraphs if g.n_vertices]
    return merge_disjoint(nonempty) if nonempty else empty_graph(k)


def _save_partition_subgraphs(output_dir, subgraphs, k: int) -> None:
    """Write subgraph files in the format matching the key width."""
    if k > 31:
        from ..bigk.serialize import save_big_subgraphs

        save_big_subgraphs(output_dir, subgraphs)
    else:
        from ..graph.serialize import save_subgraphs

        save_subgraphs(output_dir, subgraphs)


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


def _calibrated_weights(reads: ReadBatch, cfg, n_workers: int,
                        n_chunks: int) -> tuple[list[int], list[int], object]:
    """Fit the device model to this host and size both claim weights."""
    from ..hetsim.device import (
        ENTRY_BYTES,
        HashWork,
        MspWork,
        claim_weight,
        fitted_cpu,
        measure_host_rates,
    )

    # The measurement pass runs the one-word kernels; for big-k runs
    # clamp the sample's k to one word — throughput per base is what
    # the fit extracts, and that is width-insensitive to first order.
    calibration = measure_host_rates(reads, min(cfg.k, 31), cfg.p,
                                     cfg.n_partitions)
    device = fitted_cpu(calibration, n_threads=1)
    reads_per_chunk = max(1, reads.n_reads // max(1, n_chunks))
    chunk_bases = reads_per_chunk * reads.read_length
    msp_work = MspWork(
        n_reads=reads_per_chunk, n_bases=chunk_bases, n_superkmers=0,
        in_bytes=chunk_bases, out_bytes=chunk_bases,
    )
    # Per-partition Step-2 work, estimated from the input shape: every
    # kmer instance yields one multiplicity observation and up to two
    # edge observations (~3 ops), with the sample's measured rate
    # already folding in probe cost.
    kmers_per_read = max(1, reads.read_length - cfg.k + 1)
    est_kmers = max(
        1, reads.n_reads * kmers_per_read // max(1, cfg.n_partitions)
    )
    est_ops = 3 * est_kmers
    capacity = cfg.sizing.capacity_for(est_kmers)
    hash_work = HashWork(
        n_kmers=est_kmers, ops=est_ops, probes=est_ops // 4,
        inserts=max(1, est_kmers // 4), table_bytes=capacity * ENTRY_BYTES,
        in_bytes=est_kmers, out_bytes=0,
    )
    step1 = [claim_weight(device, msp_work)] * n_workers
    step2 = [claim_weight(device, hash_work)] * n_workers
    return step1, step2, calibration


def build_graph_processes(
    reads: ReadBatch,
    config,
    workdir: str | Path | None = None,
    output_dir: str | Path | None = None,
    weights: list[int] | None = None,
    step2_weights: list[int] | None = None,
):
    """Run the two-step workflow across worker processes.

    Mirrors :meth:`repro.core.parahash.ParaHash.build_graph` (same
    result type, graph bit-for-bit identical to the serial backend) but
    executes Step 1 and Step 2 on ``config.workers()`` processes.
    ``weights`` / ``step2_weights`` optionally skew the ticket dispatch
    (one entry per worker; a weight-``w`` worker claims ``w`` chunks —
    or ready partitions — per visit, the CPU/GPU-style dispatch knob).
    With ``config.calibrate`` and no explicit weights, both are sized
    from a warm-up measurement fit of :mod:`repro.hetsim.device`.

    ``config.pipeline`` selects the streaming driver (one pool, both
    steps, no barrier); without it the two steps run as separate pools
    with a global barrier between them.  Both produce the identical
    graph and on-disk artifacts.
    """
    from ..core.parahash import ParaHashResult, StageTimings

    cfg = config
    n_workers = cfg.workers()
    n_chunks = max(cfg.n_input_pieces, 2 * n_workers)
    if cfg.calibrate and weights is None and step2_weights is None \
            and reads.n_reads:
        weights, step2_weights, _ = _calibrated_weights(
            reads, cfg, n_workers, n_chunks
        )
    if weights is None:
        weights = [1] * n_workers
    if step2_weights is None:
        step2_weights = [1] * n_workers
    if len(weights) != n_workers or min(weights) < 1:
        raise ValueError("weights must give every worker a weight >= 1")
    if len(step2_weights) != n_workers or min(step2_weights) < 1:
        raise ValueError(
            "step2_weights must give every worker a weight >= 1"
        )
    ctx = default_context()

    tmp: tempfile.TemporaryDirectory | None = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-parallel-")
        spill_dir = Path(tmp.name)
    else:
        spill_dir = Path(workdir) / "spill"
        spill_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    io_seconds = 0.0
    try:
        # ---- Step 1: chunked fan-out over shared read memory --------------
        bounds_arr = np.linspace(0, reads.n_reads, n_chunks + 1).astype(int)
        chunk_bounds = [
            (int(bounds_arr[i]), int(bounds_arr[i + 1]))
            for i in range(n_chunks)
            if bounds_arr[i + 1] > bounds_arr[i]
        ]
        if cfg.pipeline and chunk_bounds:
            return _build_pipelined(
                reads, cfg, chunk_bounds, weights, step2_weights,
                spill_dir, workdir, output_dir, ctx, t0,
            )
        reports: list[dict] = []
        if chunk_bounds:
            tickets1 = ProcessTicketQueue(len(chunk_bounds), ctx)
            batch_seg = share_read_batch(reads)
            try:
                reports = run_workers(
                    _step1_worker, n_workers, ctx=ctx,
                    args=(batch_seg.spec, chunk_bounds, tickets1, weights,
                          cfg.k, cfg.p, cfg.n_partitions, str(spill_dir)),
                )
            finally:
                batch_seg.unlink()

        n_superkmers = sum(r["n_superkmers"] for r in reports)
        kmers_per_partition = np.zeros(cfg.n_partitions, dtype=np.int64)
        for r in reports:
            kmers_per_partition += np.asarray(r["kmers_per_partition"],
                                              dtype=np.int64)
        groups = spill_groups([r["spills"] for r in reports],
                              cfg.n_partitions)
        partition_bytes = sum(
            os.path.getsize(path) for group in groups for path in group
        )
        if workdir is not None:
            # Persist canonical partition files next to the spills so the
            # on-disk layout matches a serial disk-backed run.
            t_io = time.perf_counter()
            merged = merge_spill_files(groups, workdir, cfg.k)
            io_seconds += time.perf_counter() - t_io
            groups = [[path] for path in merged]
            partition_bytes = sum(os.path.getsize(path) for path in merged)
        t1 = time.perf_counter()

        # ---- Step 2: one shared table per non-empty partition -------------
        live = [
            part for part in range(cfg.n_partitions)
            if kmers_per_partition[part] > 0
        ]
        segments = {}
        payload_lists: list[list[dict]] = []
        subgraphs: list[DeBruijnGraph] = []
        stats = HashStats()
        try:
            jobs: list[_Step2Job] = []
            for part in live:
                capacity = next_power_of_two(max(2, cfg.sizing.capacity_for(
                    max(1, int(kmers_per_partition[part]))
                )))
                seg = create_table_segment(capacity, cfg.k)
                segments[part] = seg
                jobs.append(_Step2Job(
                    partition=part, k=cfg.k, table_spec=seg.spec,
                    group=tuple(str(p) for p in groups[part]),
                ))
            if jobs:
                step2_workers = max(1, min(n_workers, len(jobs)))
                tickets2 = ProcessTicketQueue(len(jobs), ctx)
                payload_lists = run_workers(
                    _step2_worker, step2_workers, ctx=ctx,
                    args=(jobs, tickets2, step2_weights, cfg.sizing,
                          cfg.preaggregate),
                )
            by_partition = {
                payload["partition"]: payload
                for payloads in payload_lists for payload in payloads
            }
            for part in live:
                payload = by_partition[part]
                stats = stats.merged_with(payload["stats"])
                if payload["fallback"] is not None:
                    subgraphs.append(payload["fallback"])
                    continue
                seg = segments[part]
                table = table_over_segment(seg, cfg.k, fresh=False)
                table.n_occupied = int(seg["header"][HEADER_N_OCCUPIED])
                subgraphs.append(table.to_graph())
                table.detach_views()
        finally:
            for seg in segments.values():
                seg.unlink()
        t2 = time.perf_counter()

        if output_dir is not None and subgraphs:
            t_io = time.perf_counter()
            _save_partition_subgraphs(output_dir, subgraphs, cfg.k)
            io_seconds += time.perf_counter() - t_io

        graph = _merge_partition_subgraphs(subgraphs, cfg.k)
        return ParaHashResult(
            graph=graph,
            subgraphs=subgraphs,
            hash_stats=stats,
            timings=StageTimings(
                msp_seconds=(t1 - t0) - io_seconds,
                hashing_seconds=t2 - t1,
                io_seconds=io_seconds,
            ),
            n_superkmers=n_superkmers,
            n_kmers=int(kmers_per_partition.sum()),
            partition_bytes=partition_bytes,
            config=cfg,
            worker_records=_worker_records(reports, payload_lists),
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def _build_pipelined(
    reads: ReadBatch,
    cfg,
    chunk_bounds: list[tuple[int, int]],
    weights: list[int],
    step2_weights: list[int],
    spill_dir: Path,
    workdir: str | Path | None,
    output_dir: str | Path | None,
    ctx,
    t0: float,
):
    """The streaming driver: one pool runs both steps, no barrier.

    Called from :func:`build_graph_processes` (which owns spill-dir
    setup/teardown); returns the same :class:`ParaHashResult`.
    """
    from ..core.parahash import ParaHashResult, StageTimings

    n_workers = cfg.workers()
    tickets1 = ProcessTicketQueue(len(chunk_bounds), ctx)
    ready = ProcessWorkQueue(cfg.n_partitions, ctx=ctx, claim_timeout=600.0)
    merger = _PipelineMerger(cfg, n_workers, ready, workdir)
    batch_seg = share_read_batch(reads)
    try:
        try:
            results = run_workers(
                _pipeline_worker, n_workers, ctx=ctx,
                args=(batch_seg.spec, chunk_bounds, tickets1, weights,
                      step2_weights, ready, cfg.k, cfg.p, cfg.n_partitions,
                      str(spill_dir), cfg.sizing, cfg.preaggregate),
                on_event=merger.on_event,
            )
        finally:
            batch_seg.unlink()
            # On an error path some workers may have been terminated
            # between a reservation and its item pickup; aborting makes
            # any racing claim return instead of wait out its timeout.
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
        subgraphs: list[DeBruijnGraph] = []
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
        _save_partition_subgraphs(output_dir, subgraphs, cfg.k)
        io_seconds += time.perf_counter() - t_io

    spills_done = merger.spills_done_at or t2
    graph = _merge_partition_subgraphs(subgraphs, cfg.k)
    step1_reports = [merger.reports[w] for w in sorted(merger.reports)]
    return ParaHashResult(
        graph=graph,
        subgraphs=subgraphs,
        hash_stats=stats,
        timings=StageTimings(
            msp_seconds=spills_done - t0,
            hashing_seconds=max(0.0, (t2 - spills_done) - merger.io_seconds),
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
    kmers: np.ndarray,
    slots: np.ndarray,
    k: int,
    capacity: int,
    n_workers: int,
    n_stripes: int = 64,
    protocol: str = "locked",
) -> tuple[DeBruijnGraph, list[HashStats]]:
    """Insert observations into ONE table from several processes.

    This is the insert protocol on genuinely concurrent memory: every
    worker runs the per-operation state machine — CAS EMPTY→LOCKED /
    write-key / publish-OCCUPIED under ``protocol="locked"``, or the
    single CAS-publish under ``protocol="lockfree"`` — against the same
    shared-memory occupancy plane.  Returns the resulting subgraph and
    the per-worker stats.  Used by the
    equivalence tests (the outcome must match a serial
    ``insert_batch``); the production pipeline instead gives each
    partition to exactly one process, as the paper does per subgraph.
    """
    kmers = np.ascontiguousarray(kmers, dtype=np.uint64).ravel()
    slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
    if kmers.shape != slots.shape:
        raise ValueError("kmers and slots must be parallel arrays")
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
        bounds = np.linspace(0, kmers.size, n_workers + 1).astype(int).tolist()
        stats = run_workers(
            _cas_worker, n_workers, ctx=ctx,
            args=(table_seg.spec, flags_seg.spec, state_locks, count_locks,
                  kmers, slots, bounds, k, protocol),
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
                kmers: np.ndarray, slots: np.ndarray,
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
            table.insert_one_threadsafe(int(kmers[i]), int(slots[i]), local)
    finally:
        table.detach_views()
        seg.close()
        flags_seg.close()
    return local


def concurrent_insert_processes_2w(
    hi: np.ndarray,
    lo: np.ndarray,
    slots: np.ndarray,
    k: int,
    capacity: int,
    n_workers: int,
    n_stripes: int = 64,
    protocol: str = "locked",
):
    """Two-word twin of :func:`concurrent_insert_processes` (k > 31).

    Several processes CAS the same occupancy plane and publish BOTH key
    words (``keys_hi`` then ``keys_lo``) — inside the LOCKED window
    under ``protocol="locked"`` (the multi-word case the state-transfer
    protocol exists for; paper §III, multi-word ablation), or between
    the claim CAS and the publication-bit store under
    ``protocol="lockfree"``.  Returns the resulting
    :class:`~repro.bigk.store.BigDeBruijnGraph` and per-worker stats.
    """
    hi = np.ascontiguousarray(hi, dtype=np.uint64).ravel()
    lo = np.ascontiguousarray(lo, dtype=np.uint64).ravel()
    slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
    if not (hi.shape == lo.shape == slots.shape):
        raise ValueError("hi, lo and slots must be parallel arrays")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if k <= 31:
        raise ValueError("use concurrent_insert_processes for k <= 31")
    ctx = default_context()
    cap = next_power_of_two(max(2, capacity))
    # Same ownership discipline as the one-word path: each `with` owns
    # its segment from creation, so a failed lock-bundle build still
    # unlinks everything (no shm leak on partially-constructed runs).
    with create_table_segment(cap, k) as table_seg, \
            create_segment([("flags", (cap,), "int64")]) as flags_seg:
        state_locks = create_lock_bundle(ctx, n_stripes)
        count_locks = create_lock_bundle(ctx, n_stripes)
        bounds = np.linspace(0, hi.size, n_workers + 1).astype(int).tolist()
        stats = run_workers(
            _cas_worker_2w, n_workers, ctx=ctx,
            args=(table_seg.spec, flags_seg.spec, state_locks, count_locks,
                  hi, lo, slots, bounds, k, protocol),
        )
        _publish_final_state(table_seg, flags_seg)
        table = table_over_segment(table_seg, k, fresh=False,
                                   protocol=protocol)
        graph = table.to_graph()
        table.detach_views()
        return graph, stats


def _cas_worker_2w(worker_id: int, table_spec: SegmentSpec,
                   flags_spec: SegmentSpec, state_locks, count_locks,
                   hi: np.ndarray, lo: np.ndarray, slots: np.ndarray,
                   bounds: list[int], k: int, protocol: str) -> HashStats:
    """One process of the two-word cross-process state-machine run."""
    from ..bigk.kmer2w import join_planes

    seg = attach_segment(table_spec)
    flags_seg = attach_segment(flags_spec)
    table = table_over_segment(seg, k, fresh=True, protocol=protocol)
    table._atomic_state = ProcessAtomicInt64Array(flags_seg["flags"],
                                                  state_locks)
    table._count_locks = list(count_locks)
    local = HashStats()
    b0, b1 = bounds[worker_id], bounds[worker_id + 1]
    try:
        for i in range(b0, b1):
            kmer = join_planes(hi[i], lo[i])
            table.insert_one_threadsafe(kmer, int(slots[i]), local)
    finally:
        table.detach_views()
        seg.close()
        flags_seg.close()
    return local
