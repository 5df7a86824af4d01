"""Traced replay of one workload through the layers' public functions.

    python3 -m perfbench.replay --workload NAME --fastq READS --out GRAPH
                                --workdir DIR --run-id ID

Serial workloads replay the serial disk-backed build call by call, with a
span around each call: parse, MSP split and spill per input piece, partition
load, and per partition observations (with k-mer packing as a child span),
pre-aggregation, table insert and ``to_graph``; then merge and save.  That
replay *is* the traced build.

Processes workloads first run the real ``build_graph`` under one
``parahash.build_graph`` span (between parse and save), which is their
traced build.  Their kernels run inside worker processes, where this file
cannot place spans, so the kernels are then replayed serially on the same
reads and k and their per-layer seconds are measured as on the serial
workloads.

Step-2 spans are named after the module whose kernels ran (``core.*`` for
k <= 31, ``bigk.*`` for the two-word twins); the counts always use the
``core.*`` names.

Prints one JSON line: the spans, the counts measured at the same call
boundaries, the paths of the graphs written and the ``/dev/shm`` entries
the run added (see :mod:`perfbench.build`).
"""

from __future__ import annotations

import argparse
import importlib
import json
from contextlib import contextmanager
from pathlib import Path

from perfbench.build import save_fn
from perfbench.leaks import shm_listing
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

MIB = float(1 << 20)


@contextmanager
def traced_packing(tracer: Tracer):
    """Record k-mer packing as a child span of the observations call.

    Packing runs inside ``block_observations[_2w]``, so it is wrapped where
    those functions look it up; the originals come back afterwards.
    """
    import repro.bigk.construct as construct_2w
    from repro.msp.records import SuperkmerBlock

    flat_1w, flat_2w = SuperkmerBlock.flat_kmers, construct_2w.flat_kmers_2w
    SuperkmerBlock.flat_kmers = tracer.wrap(flat_1w, "msp.kmer_pack")
    construct_2w.flat_kmers_2w = tracer.wrap(flat_2w, "bigk.kmer_pack")
    try:
        yield
    finally:
        SuperkmerBlock.flat_kmers = flat_1w
        construct_2w.flat_kmers_2w = flat_2w


def step1(tracer: Tracer, reads, cfg, workdir: Path, counts: dict):
    """MSP split and spill per input piece, then load the partitions."""
    from repro.msp.binio import PartitionWriter
    from repro.msp.partitioner import load_partitions, partition_reads

    workdir.mkdir(parents=True, exist_ok=True)
    paths = [workdir / f"partition_{i:04d}.phsk"
             for i in range(cfg.n_partitions)]
    writers = [PartitionWriter(path, cfg.k) for path in paths]
    n_superkmers = 0
    try:
        for piece in reads.split(cfg.n_input_pieces):
            with tracer.span("msp.split", reads=piece.n_reads):
                result = partition_reads(piece, cfg.k, cfg.p, cfg.n_partitions)
            n_superkmers += len(result.superkmers)
            with tracer.span("msp.spill"):
                for writer, block in zip(writers, result.blocks):
                    writer.write_block(block)
    finally:
        with tracer.span("msp.spill"):
            for writer in writers:
                writer.close()
    spill_bytes = sum(path.stat().st_size for path in paths)
    with tracer.span("msp.load", bytes=spill_bytes):
        blocks = load_partitions(paths)
    kmers = [b.total_kmers() for b in blocks]
    counts["msp.superkmers"] = n_superkmers
    counts["msp.spill_mb"] = spill_bytes / MIB
    counts["msp.partition_skew"] = max(kmers) * len(kmers) / max(1, sum(kmers))
    return blocks


def kernels(bigk: bool):
    """(layer, observations, pre-aggregation, table class, merge) per width."""
    from repro.core.hashtable import ConcurrentHashTable
    from repro.core.subgraph import block_observations, preaggregate_observations
    from repro.graph.merge import merge_disjoint

    if not bigk:
        return ("core", block_observations, preaggregate_observations,
                ConcurrentHashTable, merge_disjoint)
    from repro.bigk.construct import (
        block_observations_2w, merge_bigk_disjoint, preaggregate_observations_2w,
    )
    from repro.bigk.table import TwoWordHashTable

    return ("bigk", block_observations_2w, preaggregate_observations_2w,
            TwoWordHashTable, merge_bigk_disjoint)


def step2(tracer: Tracer, blocks, cfg, counts: dict):
    """Observations, pre-aggregation, insert and ``to_graph`` per partition."""
    from repro.core.hashtable import HashStats, TableFullError

    layer, observe, preaggregate, table_cls, merge = kernels(cfg.k > 31)
    stats = HashStats()
    n_obs = n_pairs = regrows = occupied = capacity_sum = table_bytes = 0
    subgraphs = []
    with traced_packing(tracer):
        for block in blocks:
            if not block.n_superkmers:
                continue
            with tracer.span(f"{layer}.observations") as sp:
                obs = observe(block)
                sp.args["observations"] = int(obs[0].size)
            with tracer.span(f"{layer}.preaggregate") as sp:
                *keys, mult = preaggregate(*obs)
                sp.args["pairs"] = int(mult.size)
            n_obs += int(obs[0].size)
            n_pairs += int(mult.size)
            capacity = cfg.sizing.capacity_for(max(1, block.total_kmers()))
            with tracer.span(f"{layer}.insert", pairs=int(mult.size)):
                for _ in range(64):
                    table = table_cls(capacity, cfg.k,
                                      protocol=cfg.insert_protocol)
                    try:
                        table.insert_batch(*keys, counts=mult)
                        break
                    except TableFullError:
                        capacity *= 2
                        regrows += 1
                else:
                    raise RuntimeError("table kept overflowing")
            with tracer.span(f"{layer}.to_graph"):
                subgraphs.append(table.to_graph())
            stats = stats.merged_with(table.stats)
            occupied += table.n_occupied
            capacity_sum += table.capacity
            table_bytes += table.memory_bytes()
    counts["core.observations"] = n_obs
    counts["core.preagg_keep_ratio"] = n_pairs / max(1, n_obs)
    counts["core.probes_per_op"] = stats.probes / max(1, stats.ops)
    counts["core.load_factor"] = occupied / max(1, capacity_sum)
    counts["core.regrows"] = regrows
    counts["core.table_mb"] = table_bytes / MIB
    with tracer.span("graph.merge", subgraphs=len(subgraphs)):
        if layer == "bigk":
            return merge(subgraphs, k=cfg.k)
        return merge(subgraphs)


def replay_kernels(tracer: Tracer, reads, cfg, workdir: Path, counts: dict):
    blocks = step1(tracer, reads, cfg, workdir, counts)
    graph = step2(tracer, blocks, cfg, counts)
    counts["graph.vertices"] = graph.n_vertices
    return graph


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--fastq", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    for mod in wl.entry_modules():
        importlib.import_module(mod)
    from repro.dna.io import load_read_batch

    save = save_fn(wl.bigk)
    cfg = wl.parahash_config()
    tracer = Tracer(args.run_id)
    counts: dict = {}
    graphs = [args.out]
    workdir = Path(args.workdir)
    shm_before = shm_listing()
    if wl.backend == "processes":
        from repro.core.parahash import ParaHash

        with tracer.span("build"):
            with tracer.span("dna.parse"):
                reads = load_read_batch(args.fastq)
            with tracer.span("parahash.build_graph", workers=cfg.workers()):
                result = ParaHash(cfg).build_graph(reads)
            with tracer.span("graph.save"):
                save(args.out, result.graph)
        with tracer.span("replay"):
            graph = replay_kernels(tracer, reads, cfg, workdir, counts)
        replay_out = str(Path(args.out).with_suffix(".replay"))
        save(replay_out, graph)
        graphs.append(replay_out)
    else:
        with tracer.span("replay"):
            with tracer.span("dna.parse"):
                reads = load_read_batch(args.fastq)
            graph = replay_kernels(tracer, reads, cfg, workdir, counts)
            with tracer.span("graph.save"):
                save(args.out, graph)
    print(json.dumps({"spans": tracer.export(), "counts": counts,
                      "graphs": graphs,
                      "shm_leaked": sorted(shm_listing() - shm_before)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
