"""Kmer counting mode (the lighter sibling of graph construction).

The paper distinguishes De Bruijn graph *construction* from kmer
*counting*: "kmer counters [2], [5], [14] do not generate the complete
De Bruijn graph in the output" (§V-A) — they only merge duplicates and
record multiplicities.  Counting is still useful on its own (abundance
filtering, spectra), and ParaHash's machinery does it with the edge
slots simply unused.  This module exposes that mode with a compact
result type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.kmer import canonical_int, canonical_u64, kmers_from_reads
from ..dna.reads import ReadBatch
from ..graph.dbg import MULT_SLOT
from ..msp.partitioner import partition_reads
from .estimator import SizingPolicy



@dataclass
class KmerCountTable:
    """Distinct canonical kmers with occurrence counts, sorted by kmer."""

    k: int
    kmers: np.ndarray  # sorted uint64
    counts: np.ndarray  # parallel uint64

    def __post_init__(self) -> None:
        self.kmers = np.asarray(self.kmers, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.uint64)
        if self.kmers.shape != self.counts.shape:
            raise ValueError("kmers and counts must be parallel")

    @property
    def n_distinct(self) -> int:
        return int(self.kmers.size)

    def total_instances(self) -> int:
        return int(self.counts.sum())

    def count(self, kmer: int) -> int:
        """Occurrences of a kmer (canonicalized first); 0 when absent."""
        canon = np.uint64(canonical_int(int(kmer), self.k))
        i = int(np.searchsorted(self.kmers, canon))
        if i < self.kmers.size and self.kmers[i] == canon:
            return int(self.counts[i])
        return 0

    def __contains__(self, kmer: int) -> bool:
        return self.count(kmer) > 0

    def filter_min_count(self, min_count: int) -> "KmerCountTable":
        keep = self.counts >= np.uint64(min_count)
        return KmerCountTable(k=self.k, kmers=self.kmers[keep],
                              counts=self.counts[keep])

    def histogram(self, max_count: int = 256) -> np.ndarray:
        """``hist[c]`` = number of distinct kmers seen exactly c times."""
        capped = np.minimum(self.counts, np.uint64(max_count)).astype(np.int64)
        return np.bincount(capped, minlength=max_count + 1)


def count_kmers(reads: ReadBatch, k: int) -> KmerCountTable:
    """Direct whole-input counting (numpy unique; the sort-merge way)."""
    kmers = kmers_from_reads(reads.codes, k)
    canon = canonical_u64(kmers, k).ravel()
    distinct, counts = np.unique(canon, return_counts=True)
    return KmerCountTable(k=k, kmers=distinct, counts=counts.astype(np.uint64))


def count_kmers_partitioned(
    reads: ReadBatch, k: int, p: int = 11, n_partitions: int = 16,
    policy: SizingPolicy | None = None,
) -> KmerCountTable:
    """MSP + hashing counting (the ParaHash way, memory-bounded).

    Identical results to :func:`count_kmers`, but the working set is one
    partition's table at a time — the counting analogue of the paper's
    construction pipeline (what MSP [2] was originally built for).
    """
    from .subgraph import build_subgraph

    result = partition_reads(reads, k, p, n_partitions)
    pieces = []
    for block in result.blocks:
        if block.n_superkmers == 0:
            continue
        sub = build_subgraph(block, policy=policy)
        pieces.append((sub.graph.planes[0], sub.graph.counts[:, MULT_SLOT]))
    if not pieces:
        return KmerCountTable(k=k, kmers=np.zeros(0, dtype=np.uint64),
                              counts=np.zeros(0, dtype=np.uint64))
    kmers = np.concatenate([p_[0] for p_ in pieces])
    counts = np.concatenate([p_[1] for p_ in pieces])
    order = np.argsort(kmers)
    return KmerCountTable(k=k, kmers=kmers[order], counts=counts[order])


def abundance_filter_reads(table: KmerCountTable, reads: ReadBatch,
                           min_count: int) -> np.ndarray:
    """Mark reads all of whose kmers pass the abundance threshold.

    A simple quality filter built on the count table: returns a boolean
    mask of "solid" reads (no kmer below ``min_count``).
    """
    k = table.k
    kmers = kmers_from_reads(reads.codes, k)
    canon = canonical_u64(kmers, k)
    idx = np.searchsorted(table.kmers, canon)
    idx = np.minimum(idx, max(0, table.kmers.size - 1))
    if table.kmers.size == 0:
        return np.zeros(reads.n_reads, dtype=bool)
    found = table.kmers[idx] == canon
    counts = np.where(found, table.counts[idx], 0)
    return (counts >= min_count).all(axis=1)
