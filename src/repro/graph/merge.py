"""Merging subgraphs into the full De Bruijn graph.

ParaHash constructs one subgraph per superkmer partition; "all subgraphs
generated in Step 2 together constitute the entire De Bruijn graph"
(§III-A).  MSP routes every duplicate of a kmer to the same partition,
so the vertex sets of the subgraphs are **disjoint** — merging is a
disjoint sorted union.  A general (overlap-tolerant, count-adding) merge
is also provided for baselines that do not guarantee disjointness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dna.kmer import join_key
from .dbg import DeBruijnGraph, empty_graph, new_key_mask, plane_order


class OverlapError(ValueError):
    """Raised when subgraphs expected to be disjoint share vertices."""


def merge_disjoint(subgraphs: Sequence[DeBruijnGraph],
                   k: int | None = None) -> DeBruijnGraph:
    """Union of vertex-disjoint subgraphs (the MSP guarantee), any width.

    ``k`` comes from the inputs, empty ones included, or from ``k=``
    (required when there are no inputs).  Raises :class:`OverlapError`
    if any vertex appears in two subgraphs, which would indicate a
    partitioning bug.
    """
    k = _common_k(subgraphs, k)
    planes, counts = _concat(subgraphs, k)
    order = plane_order(planes, kind="stable")
    planes = tuple(p[order] for p in planes)
    counts = counts[order]
    repeated = ~new_key_mask(planes)
    if repeated.any():
        row = int(np.nonzero(repeated)[0][0])
        dup = join_key([p[row] for p in planes], k)
        raise OverlapError(
            f"vertex {dup:#x} appears in more than one subgraph; "
            "MSP partitions must be vertex-disjoint"
        )
    return DeBruijnGraph(k, planes, counts)


def merge_adding(subgraphs: Sequence[DeBruijnGraph],
                 k: int | None = None) -> DeBruijnGraph:
    """General merge: counters of vertices present in several inputs add up."""
    k = _common_k(subgraphs, k)
    planes, counts = _concat(subgraphs, k)
    if not counts.size:
        return empty_graph(k)
    order = plane_order(planes, kind="stable")
    planes = tuple(p[order] for p in planes)
    starts = np.nonzero(new_key_mask(planes))[0]
    merged = np.add.reduceat(counts[order], starts, axis=0)
    return DeBruijnGraph(k, tuple(p[starts] for p in planes), merged)


def _concat(subgraphs: Sequence[DeBruijnGraph], k: int):
    """The subgraphs' key planes and counters, stacked in input order."""
    if not subgraphs:
        empty = empty_graph(k)
        return empty.planes, empty.counts
    planes = tuple(np.concatenate(column)
                   for column in zip(*(g.planes for g in subgraphs)))
    return planes, np.concatenate([g.counts for g in subgraphs], axis=0)


def _common_k(subgraphs: Sequence[DeBruijnGraph], k: int | None) -> int:
    ks = {g.k for g in subgraphs} | ({k} if k is not None else set())
    if len(ks) > 1:
        raise ValueError(f"cannot merge graphs with different k: {sorted(ks)}")
    if not ks:
        raise ValueError("a merge of no subgraphs needs k=")
    return ks.pop()
