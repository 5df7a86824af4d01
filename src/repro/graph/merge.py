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

from ..dna.kmer import key_planes
from .dbg import N_SLOTS, DeBruijnGraph, empty_graph


class OverlapError(ValueError):
    """Raised when subgraphs expected to be disjoint share vertices."""


def merge_disjoint(subgraphs: Sequence[DeBruijnGraph]) -> DeBruijnGraph:
    """Union of vertex-disjoint subgraphs (the MSP guarantee).

    Raises :class:`OverlapError` if any vertex appears in two subgraphs,
    which would indicate a partitioning bug.
    """
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        return empty_graph(k=_common_k(subgraphs) if subgraphs else 1)
    k = _common_k(subgraphs)
    vertices = np.concatenate([g.vertices for g in subgraphs])
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    order = np.argsort(vertices, kind="stable")
    vertices = vertices[order]
    counts = counts[order]
    if vertices.size > 1 and (vertices[1:] == vertices[:-1]).any():
        dup = int(vertices[np.nonzero(vertices[1:] == vertices[:-1])[0][0]])
        raise OverlapError(
            f"vertex {dup:#x} appears in more than one subgraph; "
            "MSP partitions must be vertex-disjoint"
        )
    return DeBruijnGraph(k=k, vertices=vertices, counts=counts)


def merge_subgraphs(subgraphs: Sequence, k: int):
    """Union of one build's vertex-disjoint subgraphs, at either key width.

    One-word graphs (``k <= 31``) merge through :func:`merge_disjoint`,
    two-word ones through :func:`repro.bigk.construct.merge_bigk_disjoint`;
    a merge of no (or only empty) subgraphs is the empty graph of ``k``.
    """
    if key_planes(k) > 1:
        from ..bigk.construct import merge_bigk_disjoint

        return merge_bigk_disjoint(list(subgraphs), k=k)
    nonempty = [g for g in subgraphs if g.n_vertices]
    return merge_disjoint(nonempty) if nonempty else empty_graph(k)


def merge_adding(subgraphs: Sequence[DeBruijnGraph]) -> DeBruijnGraph:
    """General merge: counters of vertices present in several inputs add up."""
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        return empty_graph(k=1)
    k = _common_k(subgraphs)
    vertices = np.concatenate([g.vertices for g in subgraphs])
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    unique, inverse = np.unique(vertices, return_inverse=True)
    merged = np.zeros((unique.size, N_SLOTS), dtype=np.uint64)
    np.add.at(merged, inverse, counts)
    return DeBruijnGraph(k=k, vertices=unique, counts=merged)


def _common_k(subgraphs: Sequence[DeBruijnGraph]) -> int:
    ks = {g.k for g in subgraphs}
    if len(ks) > 1:
        raise ValueError(f"cannot merge graphs with different k: {sorted(ks)}")
    return ks.pop()
