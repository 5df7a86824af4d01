"""Comparing De Bruijn graphs: shared and private vertex sets.

A classic application of kmer-level graphs: two related samples (e.g.
two bacterial strains, or assembly before/after error filtering) can be
compared without any alignment — vertices private to one graph mark the
sequence that differs.  Works on the sorted vertex arrays directly, so
comparisons are O(n) and memory-light.

Graphs of every key width compare the same way: at W > 1 the key
planes are viewed as one structured array whose element order equals
the store's (:meth:`DeBruijnGraph.vertex_keys`), so every set operation
below works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbg import MULT_SLOT, DeBruijnGraph


@dataclass(frozen=True)
class GraphComparison:
    """Vertex-set relationship between two graphs (same k)."""

    n_shared: int
    n_only_a: int
    n_only_b: int
    shared_vertices: np.ndarray
    only_a: np.ndarray
    only_b: np.ndarray

    @property
    def jaccard(self) -> float:
        """Jaccard similarity of the vertex sets."""
        union = self.n_shared + self.n_only_a + self.n_only_b
        return self.n_shared / union if union else 1.0

    @property
    def containment_a_in_b(self) -> float:
        """Fraction of A's vertices also present in B."""
        total_a = self.n_shared + self.n_only_a
        return self.n_shared / total_a if total_a else 1.0


def compare_graphs(a: DeBruijnGraph, b: DeBruijnGraph) -> GraphComparison:
    """Compute shared / private vertex sets of two graphs."""
    if a.k != b.k:
        raise ValueError(f"cannot compare graphs with different k: {a.k} != {b.k}")
    va, vb = a.vertex_keys(), b.vertex_keys()
    shared = np.intersect1d(va, vb, assume_unique=True)
    only_a = np.setdiff1d(va, shared, assume_unique=True)
    only_b = np.setdiff1d(vb, shared, assume_unique=True)
    return GraphComparison(
        n_shared=int(shared.size),
        n_only_a=int(only_a.size),
        n_only_b=int(only_b.size),
        shared_vertices=shared,
        only_a=only_a,
        only_b=only_b,
    )


def multiplicity_correlation(a: DeBruijnGraph, b: DeBruijnGraph) -> float:
    """Pearson correlation of shared vertices' multiplicities.

    High correlation indicates the two samples cover the common
    sequence at proportional depth.
    """
    comparison = compare_graphs(a, b)
    if comparison.n_shared < 2:
        return 0.0
    ia = np.searchsorted(a.vertex_keys(), comparison.shared_vertices)
    ib = np.searchsorted(b.vertex_keys(), comparison.shared_vertices)
    ma = a.counts[ia, MULT_SLOT].astype(float)
    mb = b.counts[ib, MULT_SLOT].astype(float)
    if ma.std() == 0 or mb.std() == 0:
        return 0.0
    return float(np.corrcoef(ma, mb)[0, 1])


def variant_regions(a: DeBruijnGraph, b: DeBruijnGraph,
                    min_multiplicity: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Private vertices filtered to solid multiplicity (likely variants).

    Returns ``(solid_only_a, solid_only_b)``: vertices private to one
    sample that are *well supported* there — dropping the multiplicity-1
    privates that are usually just that sample's sequencing errors.
    """
    comparison = compare_graphs(a, b)
    ia = np.searchsorted(a.vertex_keys(), comparison.only_a)
    solid_a = comparison.only_a[
        a.counts[ia, MULT_SLOT] >= np.uint64(min_multiplicity)
    ]
    ib = np.searchsorted(b.vertex_keys(), comparison.only_b)
    solid_b = comparison.only_b[
        b.counts[ib, MULT_SLOT] >= np.uint64(min_multiplicity)
    ]
    return solid_a, solid_b
