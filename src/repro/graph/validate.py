"""De Bruijn graph invariants and cross-implementation validation.

Every construction path in the library must produce *identical* graphs;
these checks are used by the test suite and are cheap enough to run
inside examples as sanity assertions.
"""

from __future__ import annotations

import numpy as np

from ..dna.kmer import canonical_int, iter_kmers, kmer_mask, kmer_to_str, revcomp_int
from ..dna.reads import ReadBatch
from .dbg import IN_BASE, OUT_BASE, DeBruijnGraph


class GraphValidationError(AssertionError):
    """Raised when a graph violates an invariant or differs from a reference."""


def assert_graphs_equal(actual: DeBruijnGraph, expected: DeBruijnGraph, label: str = "") -> None:
    """Exact comparison with a human-readable diff on failure."""
    prefix = f"{label}: " if label else ""
    if actual.k != expected.k:
        raise GraphValidationError(f"{prefix}k differs: {actual.k} != {expected.k}")
    if actual.n_vertices != expected.n_vertices:
        have, want = set(actual.vertex_ints()), expected.vertex_ints()
        missing = [v for v in want if v not in have][:3]
        extra = sorted(have.difference(want))[:3]
        examples = [f"missing {kmer_to_str(v, expected.k)}" for v in missing]
        examples += [f"extra {kmer_to_str(v, expected.k)}" for v in extra]
        raise GraphValidationError(
            f"{prefix}vertex count differs: {actual.n_vertices} != "
            f"{expected.n_vertices} ({'; '.join(examples)})"
        )
    differs = np.logical_or.reduce(
        [a != b for a, b in zip(actual.planes, expected.planes)]
    )
    if differs.any():
        i = int(np.nonzero(differs)[0][0])
        raise GraphValidationError(
            f"{prefix}vertex sets differ at row {i}: "
            f"{actual.vertex_str(i)} != {expected.vertex_str(i)}"
        )
    if not np.array_equal(actual.counts, expected.counts):
        rows = np.nonzero((actual.counts != expected.counts).any(axis=1))[0]
        i = int(rows[0])
        raise GraphValidationError(
            f"{prefix}counters differ on {len(rows)} vertices; first at "
            f"{actual.vertex_str(i)}: {actual.counts[i].tolist()} != "
            f"{expected.counts[i].tolist()}"
        )


def check_canonical_vertices(graph: DeBruijnGraph) -> None:
    """Every stored vertex must be in canonical form."""
    for i, v in enumerate(graph.vertex_ints()[:100_000]):
        if canonical_int(v, graph.k) != v:
            raise GraphValidationError(
                f"vertex {kmer_to_str(v, graph.k)} at row {i} is not canonical"
            )


def check_edge_symmetry(graph: DeBruijnGraph) -> None:
    """Each recorded edge must be recorded identically at both endpoints.

    For vertex ``v`` with ``out[b] = c``, the successor vertex must carry
    the reciprocal counter with the same weight ``c`` (and symmetrically
    for ``in[b]``).  Holds for any *complete* graph built from reads
    because each observed pair increments both endpoints; subgraphs in
    isolation do *not* satisfy it (the cut neighbor lives elsewhere).
    """
    k = graph.k
    mask = kmer_mask(k)
    for i, v in enumerate(graph.vertex_ints()):
        for b in range(4):
            out_w = int(graph.counts[i, OUT_BASE + b])
            if out_w:
                succ = ((v << 2) | b) & mask
                _check_reciprocal(graph, succ, origin=v, weight=out_w, incoming=True,
                                  connecting_base=v >> (2 * (k - 1)))
            in_w = int(graph.counts[i, IN_BASE + b])
            if in_w:
                pred = (b << (2 * (k - 1))) | (v >> 2)
                _check_reciprocal(graph, pred, origin=v, weight=in_w, incoming=False,
                                  connecting_base=v & 0x3)


def _check_reciprocal(graph: DeBruijnGraph, neighbor: int, origin: int, weight: int,
                      incoming: bool, connecting_base: int) -> None:
    k = graph.k
    rc = revcomp_int(neighbor, k)
    canon = min(neighbor, rc)
    j = graph.index_of(canon)
    if j < 0:
        raise GraphValidationError(
            f"edge from {kmer_to_str(origin, k)} points at absent vertex "
            f"{kmer_to_str(canon, k)}"
        )
    flipped = canon != neighbor
    base = int(connecting_base)
    if incoming:
        slot = (OUT_BASE + (3 - base)) if flipped else (IN_BASE + base)
    else:
        slot = (IN_BASE + (3 - base)) if flipped else (OUT_BASE + base)
    got = int(graph.counts[j, slot])
    if got != weight:
        raise GraphValidationError(
            f"asymmetric edge between {kmer_to_str(origin, k)} and "
            f"{kmer_to_str(canon, k)}: {weight} != {got} (slot {slot})"
        )


def check_multiplicity_conservation(graph: DeBruijnGraph, reads: ReadBatch) -> None:
    """Total vertex multiplicity must equal the number of kmer instances."""
    expected = reads.n_kmers(graph.k)
    actual = graph.total_kmer_instances()
    if actual != expected:
        raise GraphValidationError(
            f"multiplicity sum {actual} != N(L-K+1) = {expected}"
        )


def check_edge_weight_conservation(graph: DeBruijnGraph, reads: ReadBatch) -> None:
    """Total edge weight must equal twice the number of adjacent pairs.

    A read of length L contributes L-K adjacent kmer pairs; every pair
    increments one counter at each endpoint.
    """
    pairs = reads.n_reads * (reads.read_length - graph.k)
    actual = graph.total_edge_weight()
    if actual != 2 * pairs:
        raise GraphValidationError(f"edge weight sum {actual} != 2 * {pairs}")


def check_genome_coverage(graph: DeBruijnGraph, genome: np.ndarray) -> int:
    """Count genome kmers present in the graph; returns how many are missing.

    With error-free, high-coverage reads every genome kmer should be a
    vertex; with errors and finite coverage a few may be missing.
    """
    missing = 0
    for kmer in iter_kmers(np.asarray(genome, dtype=np.uint8), graph.k):
        if canonical_int(kmer, graph.k) not in graph:
            missing += 1
    return missing


def validate_full_graph(graph: DeBruijnGraph, reads: ReadBatch) -> None:
    """Run every whole-graph invariant (for complete graphs, not subgraphs)."""
    check_canonical_vertices(graph)
    check_multiplicity_conservation(graph, reads)
    check_edge_weight_conservation(graph, reads)
    check_edge_symmetry(graph)
