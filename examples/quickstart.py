#!/usr/bin/env python3
"""Quickstart: build a De Bruijn graph from simulated reads.

Runs in a few seconds.  Demonstrates the one-call API
(`repro.core.build_debruijn_graph`), basic graph queries, and the
equivalence with the single-pass reference builder.

    python examples/quickstart.py
"""

from repro.core import build_debruijn_graph
from repro.dna import TOY, kmer_to_str
from repro.graph import assert_graphs_equal, build_reference_graph


def main() -> None:
    # 1. Get reads.  TOY is a 5 kbp genome at 12x coverage; swap in
    #    repro.dna.load_read_batch("your.fastq") for real data.
    genome, reads = TOY.generate()
    print(f"dataset: {reads.n_reads} reads of {reads.read_length} bp "
          f"({reads.total_bases:,} bases)")

    # 2. Build the graph with ParaHash (MSP partitioning + concurrent
    #    hashing under the hood).
    k = 21
    graph = build_debruijn_graph(reads, k=k, p=9, n_partitions=16)
    print(f"k={k}: {graph.n_vertices:,} distinct vertices, "
          f"{graph.n_duplicate_vertices():,} duplicates merged, "
          f"total edge weight {graph.total_edge_weight():,}")

    # 3. Query a vertex: pick the first one and look at its neighbors.
    v = graph.vertex_int(0)
    print(f"\nvertex {kmer_to_str(v, k)}:")
    print(f"  multiplicity: {graph.multiplicity(v)}")
    for neighbor, weight in graph.successors(v):
        print(f"  -> {kmer_to_str(neighbor, k)} (weight {weight})")
    for neighbor, weight in graph.predecessors(v):
        print(f"  <- {kmer_to_str(neighbor, k)} (weight {weight})")

    # 4. The partitioned construction is exact: it equals the one-shot
    #    reference builder bit for bit.
    reference = build_reference_graph(reads, k)
    assert_graphs_equal(graph, reference, "quickstart")
    print("\nverified: ParaHash graph == reference graph")

    # 5. Filter out likely sequencing errors by multiplicity.
    filtered = graph.filter_min_multiplicity(2)
    print(f"after multiplicity >= 2 filter: {filtered.n_vertices:,} vertices "
          f"(genome has {genome.size - k + 1:,} kmers)")


if __name__ == "__main__":
    main()
