"""Reference De Bruijn graph construction (ground truth).

Builds the full graph from a read batch in one pass, without any
partitioning, hashing or concurrency — the semantics every other
construction path in this library (MSP + concurrent hashing, the SOAP
and bcalm baselines) must reproduce exactly.  Two implementations:

* :func:`build_reference_graph` — vectorized with numpy, used for
  benchmarks and large tests;
* :func:`build_reference_graph_slow` — a direct, per-read Python
  transliteration of Definition 3, used to validate the vectorized one
  on small inputs.
"""

from __future__ import annotations

import numpy as np

from ..dna.kmer import canonical_int, canonical_with_flip, iter_kmers, kmers_from_reads
from ..dna.reads import ReadBatch
from .dbg import (
    IN_BASE,
    MULT_SLOT,
    N_SLOTS,
    OUT_BASE,
    DeBruijnGraph,
    graph_from_pairs,
    planes_from_ints,
    slot_for_predecessor,
    slot_for_successor,
)


def edge_observations(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``(canonical vertex, counter slot)`` observations of a batch.

    Returns flat parallel arrays covering, for every read: one
    multiplicity observation per kmer instance, one successor
    observation per adjacent kmer pair (charged to the left kmer), and
    one predecessor observation per pair (charged to the right kmer).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    kmers = kmers_from_reads(codes, k)
    can, flip = canonical_with_flip(kmers, k)
    n_kmers = kmers.shape[1]

    mult_v = can.ravel()
    mult_s = np.full(mult_v.size, MULT_SLOT, dtype=np.uint64)
    if n_kmers < 2:
        return mult_v, mult_s

    next_base = codes[:, k:]  # base following kmer j, for j in [0, nk-2]
    prev_base = codes[:, : n_kmers - 1]  # base preceding kmer j+1
    succ_v = can[:, :-1].ravel()
    succ_s = slot_for_successor(flip[:, :-1], next_base).ravel().astype(np.uint64)
    pred_v = can[:, 1:].ravel()
    pred_s = slot_for_predecessor(flip[:, 1:], prev_base).ravel().astype(np.uint64)

    vertex_ids = np.concatenate([mult_v, succ_v, pred_v])
    slots = np.concatenate([mult_s, succ_s, pred_s])
    return vertex_ids, slots


def build_reference_graph(reads: ReadBatch, k: int) -> DeBruijnGraph:
    """Vectorized whole-input De Bruijn graph construction."""
    if reads.n_reads == 0:
        return graph_from_pairs(k, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
    vertex_ids, slots = edge_observations(reads.codes, k)
    return build_graph_from_observations(k, vertex_ids, slots)


def build_graph_from_observations(
    k: int, vertex_ids: np.ndarray, slots: np.ndarray
) -> DeBruijnGraph:
    """Aggregate observation pairs into a graph (thin alias for clarity)."""
    return graph_from_pairs(k, vertex_ids, slots)


def build_reference_graph_slow(reads: ReadBatch, k: int) -> DeBruijnGraph:
    """Per-read pure-Python construction; O(N L K), small inputs only.

    Python-int kmers make it the ground truth at every key width.
    """
    table: dict[int, np.ndarray] = {}

    def counter(v: int) -> np.ndarray:
        row = table.get(v)
        if row is None:
            row = np.zeros(N_SLOTS, dtype=np.uint64)
            table[v] = row
        return row

    for r in range(reads.n_reads):
        codes = reads.codes[r]
        kmer_list = list(iter_kmers(codes, k))
        canon = [canonical_int(km, k) for km in kmer_list]
        flip = [c != km for c, km in zip(canon, kmer_list)]
        for j, c in enumerate(canon):
            counter(c)[MULT_SLOT] += 1
            if j + 1 < len(kmer_list):
                b_next = int(codes[j + k])
                slot = (IN_BASE + (3 - b_next)) if flip[j] else (OUT_BASE + b_next)
                counter(c)[slot] += 1
            if j > 0:
                b_prev = int(codes[j - 1])
                slot = (OUT_BASE + (3 - b_prev)) if flip[j] else (IN_BASE + b_prev)
                counter(c)[slot] += 1

    vertices = sorted(table)
    counts = (
        np.stack([table[v] for v in vertices])
        if vertices
        else np.zeros((0, N_SLOTS), dtype=np.uint64)
    )
    return DeBruijnGraph(k, planes_from_ints(vertices, k), counts)
