"""The end-to-end ParaHash driver.

Runs the two-step workflow of Fig 3: **MSP** (graph partitioning into
superkmer partitions) then **Hashing** (one subgraph per partition with
the concurrent hash table), either fully in memory or through encoded
partition files on disk.  Partitions can be processed by one worker or
co-processed by several workers through the §III-E work-stealing queue.

The driver reports wall-clock stage timings plus the merged hashing
telemetry, which the benchmark harness feeds to the performance model.
Simulated heterogeneous (CPU + GPU) execution lives in
:mod:`repro.hetsim` and reuses the same kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..concurrentsub.workqueue import WorkerRecord, run_coprocessed
from ..dna.reads import ReadBatch
from ..graph.dbg import DeBruijnGraph
from ..graph.merge import merge_disjoint
from ..graph.serialize import save_subgraphs
from ..msp.partitioner import load_partitions, partition_reads, partition_to_files
from ..msp.records import SuperkmerBlock
from .config import ParaHashConfig
from .hashtable import HashStats
from .subgraph import SubgraphResult, build_subgraph


@dataclass
class StageTimings:
    """Wall-clock seconds per workflow stage."""

    msp_seconds: float = 0.0
    hashing_seconds: float = 0.0
    io_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.msp_seconds + self.hashing_seconds + self.io_seconds


@dataclass
class ParaHashResult:
    """Everything a ParaHash run produced.

    ``graph`` and ``subgraphs`` are :class:`DeBruijnGraph` instances
    over the ``W`` key planes of ``config.k`` (one for ``k <= 31``, two
    for ``33 <= k <= 63``).
    """

    graph: DeBruijnGraph
    subgraphs: list[DeBruijnGraph]
    hash_stats: HashStats
    timings: StageTimings
    n_superkmers: int
    n_kmers: int
    partition_bytes: int
    config: ParaHashConfig
    worker_records: dict[str, WorkerRecord] = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "n_vertices": self.graph.n_vertices,
            "n_duplicates": self.graph.n_duplicate_vertices(),
            "n_superkmers": self.n_superkmers,
            "n_kmers": self.n_kmers,
            "partition_bytes": self.partition_bytes,
            "msp_seconds": round(self.timings.msp_seconds, 4),
            "hashing_seconds": round(self.timings.hashing_seconds, 4),
            "io_seconds": round(self.timings.io_seconds, 4),
            "lock_reduction": round(self.hash_stats.lock_reduction, 4),
        }


class ParaHash:
    """Facade over the two-step construction workflow.

    Builds any ``k <= 63`` except 32.  At every key width the graph and
    subgraphs it returns are :class:`DeBruijnGraph` instances over
    ``W = key_planes(k)`` key planes, written by
    :func:`repro.graph.serialize.save_graph` in the one PHDB format.
    """

    def __init__(self, config: ParaHashConfig | None = None) -> None:
        self.config = config or ParaHashConfig()

    # -- Step 1 -----------------------------------------------------------------

    def partition(self, reads: ReadBatch) -> list[SuperkmerBlock]:
        """In-memory Step 1: superkmer blocks, one per partition.

        On the ``threads`` backend the input pieces are co-processed
        through the work-stealing queue, mirroring Step 1's pipeline;
        piece results accumulate in input order either way, so the
        outcome is identical to the sequential run.
        """
        cfg = self.config
        n_threads = cfg.coprocessing_threads()
        pieces = reads.split(cfg.n_input_pieces)
        if n_threads > 1 and len(pieces) > 1:
            workers = {
                f"cpu{t}": (
                    lambda piece: partition_reads(piece, cfg.k, cfg.p,
                                                  cfg.n_partitions)
                )
                for t in range(n_threads)
            }
            results, _ = run_coprocessed(pieces, workers,
                                         size_of=lambda piece: piece.n_reads)
        else:
            results = [
                partition_reads(piece, cfg.k, cfg.p, cfg.n_partitions)
                for piece in pieces
            ]
        blocks: list[SuperkmerBlock] | None = None
        for result in results:
            if blocks is None:
                blocks = result.blocks
            else:
                from ..msp.records import concat_blocks

                blocks = [
                    concat_blocks([a, b]) if b.n_superkmers else a
                    for a, b in zip(blocks, result.blocks)
                ]
        assert blocks is not None
        return blocks

    # -- Step 2 -----------------------------------------------------------------

    def construct_subgraphs(
        self, blocks: list[SuperkmerBlock]
    ) -> tuple[list[SubgraphResult], dict[str, WorkerRecord]]:
        """Build one subgraph per partition, optionally co-processed."""
        cfg = self.config
        n_threads = cfg.coprocessing_threads()
        nonempty = [b for b in blocks if b.n_superkmers]

        def process(block: SuperkmerBlock) -> SubgraphResult:
            return build_subgraph(block, policy=cfg.sizing,
                                  preaggregate=cfg.preaggregate)

        if n_threads == 1 or len(nonempty) <= 1:
            return [process(b) for b in nonempty], {}
        workers = {f"cpu{t}": process for t in range(n_threads)}
        results, records = run_coprocessed(
            nonempty, workers, size_of=lambda b: b.total_kmers()
        )
        return results, records

    # -- end to end ---------------------------------------------------------------

    def build_graph(
        self,
        reads: ReadBatch,
        workdir: str | Path | None = None,
        output_dir: str | Path | None = None,
    ) -> ParaHashResult:
        """Run both steps and merge the subgraphs into the full graph.

        With ``workdir`` set, Step 1 streams encoded partition files to
        disk and Step 2 reads them back (the paper's measured
        configuration, including the write-out/read-in of superkmer
        partitions); otherwise everything stays in memory.  With
        ``output_dir`` set, Step 2 additionally writes each constructed
        subgraph as a binary file — the workflow's final output stage.

        ``config.backend`` selects the execution backend.  ``serial``
        runs everything in this thread; ``threads`` co-processes both
        steps over ``config.workers()`` threads through the §III-E
        queue; ``processes`` hands the run to the shared-memory process
        backend (:func:`repro.parallel.backend.build_graph_processes`).
        All three produce the identical graph, at any ``k`` of
        :func:`repro.dna.kmer.key_planes`: Step 1 only looks at one-word
        minimizers, and Step 2 runs the same kernels over one or two
        key planes.
        """
        cfg = self.config
        if cfg.backend == "processes":
            from ..parallel.backend import build_graph_processes

            return build_graph_processes(
                reads, cfg, workdir=workdir, output_dir=output_dir
            )
        t0 = time.perf_counter()
        io_seconds = 0.0
        partition_bytes = 0
        if workdir is None:
            blocks = self.partition(reads)
            n_superkmers = sum(b.n_superkmers for b in blocks)
            n_kmers = sum(b.total_kmers() for b in blocks)
            partition_bytes = sum(b.byte_size_encoded() for b in blocks)
        else:
            report = partition_to_files(
                reads, cfg.k, cfg.p, cfg.n_partitions, workdir,
                n_input_pieces=cfg.n_input_pieces,
            )
            t_io = time.perf_counter()
            blocks = load_partitions(report.paths)
            io_seconds += time.perf_counter() - t_io
            n_superkmers = report.n_superkmers
            n_kmers = report.n_kmers
            partition_bytes = report.bytes_written
        t1 = time.perf_counter()

        subgraph_results, records = self.construct_subgraphs(blocks)
        t2 = time.perf_counter()

        subgraphs = [r.graph for r in subgraph_results]
        if output_dir is not None and subgraphs:
            t_io = time.perf_counter()
            save_subgraphs(output_dir, subgraphs)
            io_seconds += time.perf_counter() - t_io
        graph = merge_disjoint(subgraphs, k=cfg.k)
        stats = HashStats()
        for r in subgraph_results:
            stats = stats.merged_with(r.stats)
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
            n_kmers=n_kmers,
            partition_bytes=partition_bytes,
            config=cfg,
            worker_records=records,
        )


    def build_graph_from_files(
        self,
        input_paths: list[str | Path],
        workdir: str | Path,
        output_dir: str | Path | None = None,
    ) -> ParaHashResult:
        """Construct from multiple read files without loading them at once.

        The on-disk analogue of the paper's Step 1 input loop: each file
        is one input piece — loaded, partitioned, appended to the
        partition files, and released before the next file is touched.
        Step 2 then proceeds from the accumulated partitions.  All files
        must contain reads of one common length.
        """
        from ..dna.io import load_read_batch
        from ..msp.binio import PartitionWriter

        if not input_paths:
            raise ValueError("need at least one input file")
        cfg = self.config
        work = Path(workdir)
        work.mkdir(parents=True, exist_ok=True)
        paths = [work / f"partition_{i:04d}.phsk" for i in range(cfg.n_partitions)]
        writers = [PartitionWriter(path, cfg.k) for path in paths]
        t0 = time.perf_counter()
        n_superkmers = 0
        n_kmers = 0
        n_reads = 0
        try:
            for input_path in input_paths:
                piece = load_read_batch(input_path)
                n_reads += piece.n_reads
                result = partition_reads(piece, cfg.k, cfg.p, cfg.n_partitions)
                for writer, block in zip(writers, result.blocks):
                    writer.write_block(block)
                n_superkmers += len(result.superkmers)
                n_kmers += result.total_kmers()
        finally:
            for writer in writers:
                writer.close()
        partition_bytes = sum(p.stat().st_size for p in paths)
        t1 = time.perf_counter()

        blocks = load_partitions(paths)
        subgraph_results, records = self.construct_subgraphs(blocks)
        subgraphs = [r.graph for r in subgraph_results]
        if output_dir is not None and subgraphs:
            save_subgraphs(output_dir, subgraphs)
        graph = merge_disjoint(subgraphs, k=cfg.k)
        t2 = time.perf_counter()
        stats = HashStats()
        for r in subgraph_results:
            stats = stats.merged_with(r.stats)
        return ParaHashResult(
            graph=graph,
            subgraphs=subgraphs,
            hash_stats=stats,
            timings=StageTimings(msp_seconds=t1 - t0, hashing_seconds=t2 - t1),
            n_superkmers=n_superkmers,
            n_kmers=n_kmers,
            partition_bytes=partition_bytes,
            config=cfg,
            worker_records=records,
        )


def build_debruijn_graph(
    reads: ReadBatch,
    k: int = 27,
    p: int = 11,
    n_partitions: int = 32,
    workdir: str | Path | None = None,
) -> DeBruijnGraph:
    """One-call convenience API: reads in, De Bruijn graph out.

    Any ``k`` up to 63 (except 32); for ``k > 31`` the graph holds two
    key planes.
    """
    config = ParaHashConfig(k=k, p=p, n_partitions=n_partitions)
    return ParaHash(config).build_graph(reads, workdir=workdir).graph
