"""The De Bruijn graph store: canonical vertices with weighted adjacency.

Definition 3 of the paper: the construction outputs, for every distinct
vertex, an adjacency list in which each adjacent vertex carries a weight
equal to the number of occurrences of the pair.  A vertex is a
*canonical* kmer (the lexicographic minimum of a kmer and its reverse
complement), so the graph is bi-directed.

Because two adjacent vertices overlap in K-1 bases, an edge is fully
identified by a single base — "the rightmost or leftmost character on
the destination vertex ... is used as the array index" (§III-C2).  Each
vertex therefore stores exactly **eight edge-multiplicity counters**
plus its own occurrence count:

====== =========================================================
slot   meaning (relative to the canonical-forward orientation)
====== =========================================================
0..3   ``out[b]`` — successor reached by appending base ``b``
4..7   ``in[b]``  — predecessor formed by prepending base ``b``
8      multiplicity of the vertex itself (kmer occurrence count)
====== =========================================================

The store is ``W`` parallel uint64 key planes (one for ``k <= 31``, two
for ``33 <= k <= 63``; :func:`repro.dna.kmer.key_planes`) plus the
counter matrix, sorted by vertex, which makes graphs of every width
directly comparable, mergeable and binary-searchable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..dna.kmer import (
    canonical_int,
    join_key,
    key_plane_bases,
    key_planes,
    kmer_mask,
    kmer_to_str,
    split_key,
)

#: Number of counters per vertex: 4 out-edges, 4 in-edges, multiplicity.
N_SLOTS = 9
OUT_BASE = 0
IN_BASE = 4
MULT_SLOT = 8


def slot_for_successor(flipped: np.ndarray, next_base: np.ndarray) -> np.ndarray:
    """Counter slot for an observed successor edge.

    ``flipped`` marks kmer instances whose canonical form is the reverse
    complement of the read orientation; for those, a right extension in
    the read is a left extension of the canonical form with the
    complemented base.
    """
    next_base = np.asarray(next_base)
    flipped = np.asarray(flipped)
    return np.where(flipped, IN_BASE + (3 - next_base), OUT_BASE + next_base)


def slot_for_predecessor(flipped: np.ndarray, prev_base: np.ndarray) -> np.ndarray:
    """Counter slot for an observed predecessor edge (mirror of successor)."""
    prev_base = np.asarray(prev_base)
    flipped = np.asarray(flipped)
    return np.where(flipped, OUT_BASE + (3 - prev_base), IN_BASE + prev_base)


@dataclass(init=False, eq=False)
class DeBruijnGraph:
    """A constructed De Bruijn (sub)graph over ``W`` key planes.

    Attributes
    ----------
    k:
        Kmer length of the vertices.
    planes:
        ``W = key_planes(k)`` parallel ``uint64`` arrays holding the
        distinct canonical kmers, most significant plane first
        (:func:`repro.dna.kmer.key_plane_bases`), strictly sorted by
        plane tuple.  W = 1 for ``k <= 31``, W = 2 for ``33 <= k <= 63``.
    counts:
        ``(n_vertices, 9)`` uint64 counter matrix (see module docstring).

    ``DeBruijnGraph(k, vertices=..., counts=...)`` is the one-plane
    spelling of ``DeBruijnGraph(k, (vertices,), counts)``.
    """

    k: int
    planes: tuple[np.ndarray, ...]
    counts: np.ndarray

    def __init__(self, k: int, planes: Sequence[np.ndarray] = (),
                 counts: np.ndarray | None = None, *,
                 vertices: np.ndarray | None = None) -> None:
        if vertices is not None:
            planes = (vertices,)
        self.k = k
        self.planes = tuple(np.asarray(p, dtype=np.uint64) for p in planes)
        self.counts = np.asarray(counts, dtype=np.uint64)
        width = key_planes(k)
        if len(self.planes) != width:
            raise ValueError(
                f"k={k} needs {width} key plane(s), got {len(self.planes)}"
            )
        n = self.planes[0].size
        if any(p.shape != (n,) for p in self.planes):
            raise ValueError("key planes must be parallel 1-D arrays")
        if self.counts.shape != (n, N_SLOTS):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match ({n}, {N_SLOTS})"
            )
        if not _strictly_sorted(self.planes):
            raise ValueError("vertices must be strictly sorted")

    # -- one-plane and two-plane spellings read by perfbench ----------------

    @property
    def vertices(self) -> np.ndarray:
        return self._named_plane(1, 0)

    @property
    def vertices_hi(self) -> np.ndarray:
        return self._named_plane(2, 0)

    @property
    def vertices_lo(self) -> np.ndarray:
        return self._named_plane(2, 1)

    def _named_plane(self, width: int, i: int) -> np.ndarray:
        if len(self.planes) != width:
            raise AttributeError(f"a k={self.k} graph has {len(self.planes)} "
                                 f"key plane(s), not {width}")
        return self.planes[i]

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of distinct vertices (the paper's graph-size metric)."""
        return int(self.counts.shape[0])

    def total_kmer_instances(self) -> int:
        """Total kmer occurrences absorbed (distinct + duplicates)."""
        return int(self.counts[:, MULT_SLOT].sum())

    def n_duplicate_vertices(self) -> int:
        """Occurrences beyond the first per vertex (Table I's duplicates)."""
        return self.total_kmer_instances() - self.n_vertices

    def total_edge_weight(self) -> int:
        """Sum of all edge multiplicities over all adjacency lists.

        Every observed adjacent pair contributes one unit at *each*
        endpoint, so this equals twice the number of observed pairs.
        """
        return int(self.counts[:, OUT_BASE:MULT_SLOT].sum())

    def __len__(self) -> int:
        return self.n_vertices

    def __contains__(self, kmer: int) -> bool:
        return self.index_of(int(kmer)) >= 0

    def index_of(self, kmer: int) -> int:
        """Row index of a canonical kmer (a Python int), or -1 when absent.

        Narrows the row range plane by plane, then binary-searches the
        least significant plane.
        """
        *values, last = split_key(int(kmer), self.k)
        lo, hi = 0, self.n_vertices
        for plane, value in zip(self.planes, values):
            seg = plane[lo:hi]
            lo, hi = (lo + int(np.searchsorted(seg, np.uint64(value), "left")),
                      lo + int(np.searchsorted(seg, np.uint64(value), "right")))
        plane = self.planes[-1]
        i = lo + int(np.searchsorted(plane[lo:hi], np.uint64(last)))
        if i < hi and int(plane[i]) == last:
            return i
        return -1

    def vertex_int(self, i: int) -> int:
        """Vertex row ``i`` as a Python-int kmer."""
        return join_key([plane[i] for plane in self.planes], self.k)

    def vertex_ints(self) -> list[int]:
        """Every vertex as a Python-int kmer, in row order."""
        ints = self.planes[0].tolist()
        for plane, bases in zip(self.planes[1:], key_plane_bases(self.k)[1:]):
            shift = 2 * bases
            ints = [(v << shift) | p for v, p in zip(ints, plane.tolist())]
        return ints

    def vertex_keys(self) -> np.ndarray:
        """One sortable array of the vertices, in row order.

        The plane itself when W = 1; otherwise a structured view with
        one field per plane, most significant first, so numpy's
        field-by-field order equals the store's.
        """
        if len(self.planes) == 1:
            return self.planes[0]
        keys = np.empty(self.n_vertices,
                        dtype=[(f"p{i}", "<u8") for i in range(len(self.planes))])
        for i, plane in enumerate(self.planes):
            keys[f"p{i}"] = plane
        return keys

    def multiplicity(self, kmer: int) -> int:
        """Occurrence count of a canonical kmer (0 when absent)."""
        i = self.index_of(kmer)
        return int(self.counts[i, MULT_SLOT]) if i >= 0 else 0

    def edge_counts(self, kmer: int) -> np.ndarray:
        """The 8 edge counters of a vertex (zeros when absent)."""
        i = self.index_of(kmer)
        if i < 0:
            return np.zeros(8, dtype=np.uint64)
        return self.counts[i, OUT_BASE:MULT_SLOT].copy()

    def successors(self, kmer: int) -> list[tuple[int, int]]:
        """``(canonical_neighbor, weight)`` for each non-zero out slot."""
        return self._neighbors(kmer, out_side=True)

    def predecessors(self, kmer: int) -> list[tuple[int, int]]:
        """``(canonical_neighbor, weight)`` for each non-zero in slot."""
        return self._neighbors(kmer, out_side=False)

    def _neighbors(self, kmer: int, out_side: bool) -> list[tuple[int, int]]:
        i = self.index_of(kmer)
        if i < 0:
            return []
        mask = kmer_mask(self.k)
        result = []
        base_slot = OUT_BASE if out_side else IN_BASE
        for b in range(4):
            weight = int(self.counts[i, base_slot + b])
            if weight == 0:
                continue
            if out_side:
                neighbor = ((int(kmer) << 2) | b) & mask
            else:
                neighbor = (b << (2 * (self.k - 1))) | (int(kmer) >> 2)
            result.append((canonical_int(neighbor, self.k), weight))
        return result

    def degree(self, kmer: int) -> int:
        """Number of distinct adjacent vertices recorded for a vertex."""
        counts = self.edge_counts(kmer)
        return int((counts > 0).sum())

    # -- transformations ----------------------------------------------------

    def filter_min_multiplicity(self, min_multiplicity: int) -> "DeBruijnGraph":
        """Drop vertices seen fewer than ``min_multiplicity`` times.

        Erroneous kmers "can only be filtered by the number of their
        occurrences after the graph is constructed" (§III-C1); this is
        that filter.  Edges pointing at dropped vertices are retained on
        the surviving endpoint (they identify the dropped neighbor).
        """
        keep = self.counts[:, MULT_SLOT] >= np.uint64(min_multiplicity)
        return DeBruijnGraph(
            self.k, tuple(p[keep] for p in self.planes), self.counts[keep]
        )

    def filter_min_edge_weight(self, min_weight: int) -> "DeBruijnGraph":
        """Zero out edges observed fewer than ``min_weight`` times.

        Edge weights exist precisely to guide traversal ("Edge weights
        are used in determining the traversal paths for assembly",
        §II-B): low-weight edges are sequencing-error artifacts.  The
        vertex set and multiplicities are unchanged.
        """
        counts = self.counts.copy()
        edges = counts[:, OUT_BASE:MULT_SLOT]
        edges[edges < np.uint64(min_weight)] = 0
        return DeBruijnGraph(self.k, tuple(p.copy() for p in self.planes), counts)

    def memory_bytes(self) -> int:
        """Bytes held by the key planes and the counter matrix."""
        return int(sum(p.nbytes for p in self.planes) + self.counts.nbytes)

    # -- comparison ---------------------------------------------------------

    def equals(self, other: "DeBruijnGraph") -> bool:
        """Exact equality of vertex sets and all counters."""
        return (
            self.k == other.k
            and all(np.array_equal(a, b) for a, b in zip(self.planes, other.planes))
            and bool(np.array_equal(self.counts, other.counts))
        )

    def describe(self) -> dict:
        """Summary statistics used by the benchmark tables."""
        return {
            "k": self.k,
            "key_planes": len(self.planes),
            "n_vertices": self.n_vertices,
            "n_duplicates": self.n_duplicate_vertices(),
            "total_kmer_instances": self.total_kmer_instances(),
            "total_edge_weight": self.total_edge_weight(),
            "memory_bytes": self.memory_bytes(),
        }

    def vertex_str(self, i: int) -> str:
        """DNA string of vertex row ``i`` (debugging aid)."""
        return kmer_to_str(self.vertex_int(i), self.k)


def new_key_mask(planes: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the sorted rows whose plane tuple differs from the row before."""
    new = np.zeros(planes[0].size, dtype=bool)
    new[:1] = True
    for plane in planes:
        new[1:] |= plane[1:] != plane[:-1]
    return new


def _strictly_sorted(planes: Sequence[np.ndarray]) -> bool:
    """Are the rows strictly increasing by plane tuple?"""
    if planes[0].size < 2:
        return True
    *high, last = planes
    increasing = last[1:] > last[:-1]
    for plane in reversed(high):
        increasing = (plane[1:] > plane[:-1]) | (
            (plane[1:] == plane[:-1]) & increasing
        )
    return bool(increasing.all())


def plane_order(planes: Sequence[np.ndarray], kind: str | None = None) -> np.ndarray:
    """Indices that sort rows by plane tuple, most significant plane first.

    One plane sorts with ``np.argsort(kind=kind)``; several with the
    (stable) ``np.lexsort``.
    """
    if len(planes) == 1:
        return np.argsort(planes[0], kind=kind)
    return np.lexsort(tuple(planes[::-1]))


def planes_from_ints(kmers: Sequence[int], k: int) -> tuple[np.ndarray, ...]:
    """The key planes of Python-int kmers, most significant plane first."""
    keys = [split_key(v, k) for v in kmers]
    return tuple(np.array([key[i] for key in keys], dtype=np.uint64)
                 for i in range(key_planes(k)))


def empty_graph(k: int) -> DeBruijnGraph:
    """A graph with no vertices."""
    return DeBruijnGraph(
        k,
        tuple(np.zeros(0, dtype=np.uint64) for _ in range(key_planes(k))),
        np.zeros((0, N_SLOTS), dtype=np.uint64),
    )


def graph_from_pairs(k: int, *arrays: np.ndarray) -> DeBruijnGraph:
    """Aggregate ``(*planes, slot)`` observations into a graph.

    Every observation increments one counter.  This is the shared
    aggregation kernel of the reference builders and of the sort-merge
    baselines: it sorts the observations and merges duplicates, exactly
    the "sort-merge" strategy of §II-B, implemented with numpy.
    """
    *planes, slots = (np.asarray(a, dtype=np.uint64).ravel() for a in arrays)
    if len(planes) != key_planes(k):
        raise ValueError(f"k={k} needs {key_planes(k)} key plane(s), "
                         f"got {len(planes)}")
    if any(p.shape != slots.shape for p in planes):
        raise ValueError("key planes and slots must have equal length")
    if slots.size == 0:
        return empty_graph(k)
    if int(slots.max()) >= N_SLOTS:
        raise ValueError("slot values must be < 9")
    if len(planes) == 1 and 2 * k + 4 <= 64:
        # Fast path: pack (vertex, slot) into one uint64 key.
        keys = (planes[0] << np.uint64(4)) | slots
        unique_keys, key_counts = np.unique(keys, return_counts=True)
        u_planes = [unique_keys >> np.uint64(4)]
        u_slots = (unique_keys & np.uint64(0xF)).astype(np.int64)
    else:
        order = np.lexsort((slots, *planes[::-1]))
        s_planes = [p[order] for p in planes]
        s_slots = slots[order]
        starts = np.nonzero(new_key_mask([*s_planes, s_slots]))[0]
        key_counts = np.diff(np.append(starts, s_slots.size))
        u_planes = [p[starts] for p in s_planes]
        u_slots = s_slots[starts].astype(np.int64)
    new = new_key_mask(u_planes)
    counts = np.zeros((int(new.sum()), N_SLOTS), dtype=np.uint64)
    counts[np.cumsum(new) - 1, u_slots] = key_counts
    return DeBruijnGraph(k, tuple(p[new] for p in u_planes), counts)
