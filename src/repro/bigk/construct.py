"""End-to-end big-K construction: MSP + two-word concurrent hashing.

The MSP step is K-agnostic as long as the minimizer length P fits one
word (P <= 31): superkmer decomposition and partition routing only look
at P-length substrings.  What changes for K > 31 is kmer generation
from the partition blocks and the hash table's key width — both
provided here over the two-word substrate.

The union of all subgraphs is validated (in the test suite) against the
pure-Python big-K reference builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.estimator import SizingPolicy
from ..core.hashtable import HashStats, TableFullError
from ..dna.reads import ReadBatch
from ..graph.dbg import MULT_SLOT, N_SLOTS, slot_for_predecessor, slot_for_successor
from ..msp.partitioner import partition_reads
from ..msp.records import SuperkmerBlock
from .kmer2w import LO_BASES, canonical2w_with_flip, check_2w_k, hi_bases
from .store import BigDeBruijnGraph, graph_from_plane_pairs
from .table import TwoWordHashTable


def flat_kmers_2w(block: SuperkmerBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All two-word kmers of a block with their flat base positions.

    Two-plane k-tap evaluation over the flat base array (the big-K twin
    of :meth:`SuperkmerBlock.flat_kmers`).
    """
    k = block.k
    check_2w_k(k)
    if block.n_superkmers == 0:
        empty = np.zeros(0, dtype=np.uint64)
        return empty, empty.copy(), np.zeros(0, dtype=np.int64)
    per_sk = block.kmers_per_superkmer
    total = int(per_sk.sum())
    starts = np.repeat(block.offsets[:-1], per_sk)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(per_sk)[:-1])), per_sk
    )
    positions = starts + ramp
    t = block.bases.size
    flat = block.bases.astype(np.uint64)
    hb = hi_bases(k)
    hi = np.zeros(t - k + 1, dtype=np.uint64)
    lo = np.zeros(t - k + 1, dtype=np.uint64)
    for j in range(hb):
        hi |= flat[j : t - k + 1 + j] << np.uint64(2 * (hb - 1 - j))
    for j in range(LO_BASES):
        lo |= flat[hb + j : t - k + 1 + hb + j] << np.uint64(2 * (LO_BASES - 1 - j))
    return hi[positions], lo[positions], positions


def block_observations_2w(
    block: SuperkmerBlock,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, slot)`` observations of a block (big-K Step 2 input)."""
    k = block.k
    if block.n_superkmers == 0:
        empty = np.zeros(0, dtype=np.uint64)
        return empty, empty.copy(), np.zeros(0, dtype=np.int64)
    hi, lo, positions = flat_kmers_2w(block)
    can_hi, can_lo, flip = canonical2w_with_flip(hi, lo, k)

    per_sk = block.kmers_per_superkmer
    total = int(per_sk.sum())
    sk_ids = np.repeat(np.arange(block.n_superkmers, dtype=np.int64), per_sk)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(per_sk)[:-1])), per_sk
    )
    is_first = ramp == 0
    is_last = ramp == (per_sk[sk_ids] - 1)

    bases = block.bases
    t = bases.size
    next_base = bases[np.minimum(positions + k, t - 1)].astype(np.int16)
    next_base[is_last] = block.right_ext[sk_ids[is_last]].astype(np.int16)
    prev_base = bases[np.maximum(positions - 1, 0)].astype(np.int16)
    prev_base[is_first] = block.left_ext[sk_ids[is_first]].astype(np.int16)

    mult_slots = np.full(total, MULT_SLOT, dtype=np.int64)
    has_succ = next_base >= 0
    has_pred = prev_base >= 0
    succ_slots = slot_for_successor(flip[has_succ], next_base[has_succ]).astype(np.int64)
    pred_slots = slot_for_predecessor(flip[has_pred], prev_base[has_pred]).astype(np.int64)

    out_hi = np.concatenate([can_hi, can_hi[has_succ], can_hi[has_pred]])
    out_lo = np.concatenate([can_lo, can_lo[has_succ], can_lo[has_pred]])
    out_slots = np.concatenate([mult_slots, succ_slots, pred_slots])
    return out_hi, out_lo, out_slots


def preaggregate_observations_2w(
    hi: np.ndarray, lo: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate ``(hi, lo, slot)`` triples into counted triples.

    The two-word twin of
    :func:`repro.core.subgraph.preaggregate_observations`: lexsort by
    ``(hi, lo, slot)`` and run-length-encode the boundaries, so each
    distinct (vertex, slot) pair pays a single probe walk in
    :meth:`TwoWordHashTable.insert_batch` regardless of its
    multiplicity.  Returns ``(hi, lo, slots, counts)``.
    """
    hi = np.ascontiguousarray(hi, dtype=np.uint64).ravel()
    lo = np.ascontiguousarray(lo, dtype=np.uint64).ravel()
    slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
    if not (hi.shape == lo.shape == slots.shape):
        raise ValueError("hi, lo and slots must be parallel arrays")
    if hi.size == 0:
        return hi, lo, slots, np.zeros(0, dtype=np.int64)
    order = np.lexsort((slots, lo, hi))
    shi, slo, ss = hi[order], lo[order], slots[order]
    boundary = np.ones(shi.size, dtype=bool)
    boundary[1:] = (
        (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1]) | (ss[1:] != ss[:-1])
    )
    starts = np.nonzero(boundary)[0]
    ends = np.concatenate([starts[1:], [shi.size]])
    counts = (ends - starts).astype(np.int64)
    return shi[starts], slo[starts], ss[starts], counts


@dataclass
class BigKSubgraphResult:
    graph: BigDeBruijnGraph
    stats: HashStats
    capacity: int


def build_subgraph_2w(
    block: SuperkmerBlock, policy: SizingPolicy | None = None,
    allow_regrow: bool = True, preaggregate: bool = False,
) -> BigKSubgraphResult:
    """One subgraph through the two-word concurrent hash table."""
    policy = policy or SizingPolicy()
    n_kmers = block.total_kmers()
    capacity = policy.capacity_for(max(1, n_kmers))
    hi, lo, slots = block_observations_2w(block)
    counts = None
    if preaggregate:
        hi, lo, slots, counts = preaggregate_observations_2w(hi, lo, slots)
    n_regrow_cap = policy.capacity_for(max(1, n_kmers)) * 64
    while True:
        table = TwoWordHashTable(capacity, block.k)
        try:
            table.insert_batch(hi, lo, slots, counts=counts)
            break
        except TableFullError:
            if not allow_regrow or capacity > n_regrow_cap:
                raise
            capacity *= 2
    return BigKSubgraphResult(graph=table.to_graph(), stats=table.stats,
                              capacity=table.capacity)


def build_subgraph_2w_sortmerge(block: SuperkmerBlock) -> BigDeBruijnGraph:
    """Sort-merge oracle for the two-word hash path."""
    hi, lo, slots = block_observations_2w(block)
    return graph_from_plane_pairs(block.k, hi, lo, slots)


def merge_bigk_disjoint(
    subgraphs: list[BigDeBruijnGraph], k: int | None = None
) -> BigDeBruijnGraph:
    """Union of vertex-disjoint big-K subgraphs.

    ``k`` pins the k of an all-empty merge (defaults to 33 for
    backwards compatibility when no subgraph carries one).
    """
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        from .store import empty_bigk_graph

        return empty_bigk_graph(33 if k is None else k)
    k = subgraphs[0].k
    if any(g.k != k for g in subgraphs):
        raise ValueError("cannot merge graphs with different k")
    hi = np.concatenate([g.vertices_hi for g in subgraphs])
    lo = np.concatenate([g.vertices_lo for g in subgraphs])
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    order = np.lexsort((lo, hi))
    hi, lo, counts = hi[order], lo[order], counts[order]
    if hi.size > 1:
        dup = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        if dup.any():
            raise ValueError("big-K subgraphs share vertices; partitioning bug")
    return BigDeBruijnGraph(k=k, vertices_hi=hi, vertices_lo=lo, counts=counts)


def build_debruijn_graph_bigk(
    reads: ReadBatch, k: int, p: int = 15, n_partitions: int = 16,
    policy: SizingPolicy | None = None, n_threads: int = 1,
    preaggregate: bool = False,
) -> BigDeBruijnGraph:
    """Full big-K pipeline: MSP partitioning + two-word hashing + merge.

    ``n_threads > 1`` co-processes the partition blocks through the
    §III-E work-stealing queue (the ``threads`` backend's big-k path);
    the merged graph is identical to the sequential run.
    """
    check_2w_k(k)
    if not 1 <= p <= 31:
        raise ValueError("minimizer length p must be in [1, 31]")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    result = partition_reads(reads, k, p, n_partitions)
    nonempty = [block for block in result.blocks if block.n_superkmers]
    if n_threads > 1 and len(nonempty) > 1:
        from ..concurrentsub.workqueue import run_coprocessed

        workers = {
            f"cpu{t}": (lambda block: build_subgraph_2w(
                block, policy=policy, preaggregate=preaggregate).graph)
            for t in range(n_threads)
        }
        subgraphs, _ = run_coprocessed(
            nonempty, workers, size_of=lambda b: b.total_kmers()
        )
    else:
        subgraphs = [
            build_subgraph_2w(block, policy=policy,
                              preaggregate=preaggregate).graph
            for block in nonempty
        ]
    return merge_bigk_disjoint(subgraphs, k=k)
