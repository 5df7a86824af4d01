"""Unitig compaction of a bi-directed De Bruijn graph.

bcalm2 — one of the paper's comparison systems — *compacts* the graph
it builds: maximal non-branching paths (unitigs) are collapsed into
single sequences.  This module provides that operation on our graph
store, both as part of the bcalm-style baseline and as a usable
post-processing feature (assemblers traverse unitigs, not raw kmers).

Bi-directed semantics: every canonical vertex has two *sides* — OUT
(the right end of its canonical-forward spelling) and IN (the left
end).  A traversal leaves through a side and enters the neighbor
through the side determined by the neighbor's orientation.  A unitig
extends through a side only when that side has exactly one edge **and**
the neighbor's entry side has exactly one edge (the standard mutual
single-neighbor rule), so compaction never crosses a branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import decode
from ..dna.encoding import int_to_codes
from ..dna.kmer import kmer_mask, revcomp_int
from .dbg import IN_BASE, OUT_BASE, DeBruijnGraph

#: Side identifiers.
SIDE_OUT = 0
SIDE_IN = 1


@dataclass(frozen=True)
class Unitig:
    """A maximal non-branching path.

    Attributes
    ----------
    bases:
        The unitig's spelled sequence (codes); ``len >= k``.
    vertex_rows:
        Graph row indices of the member vertices, in path order.
    mean_multiplicity:
        Average vertex multiplicity along the path (coverage proxy).
    is_cycle:
        True when the path closed on itself.
    """

    bases: np.ndarray
    vertex_rows: tuple[int, ...]
    mean_multiplicity: float
    is_cycle: bool = False

    def __len__(self) -> int:
        return int(self.bases.size)

    def to_str(self) -> str:
        return decode(self.bases)


def _edges_on_side(counts_row: np.ndarray, side: int) -> list[int]:
    base_slot = OUT_BASE if side == SIDE_OUT else IN_BASE
    return [b for b in range(4) if counts_row[base_slot + b] > 0]


def _step(vertex: int, side: int, base: int, k: int) -> tuple[int, int, bool]:
    """Follow one edge; returns (neighbor_canonical, entry_side, flipped).

    Leaving through OUT with base b appends b to the forward spelling;
    leaving through IN with base b prepends b.  The neighbor is entered
    through IN (if it reads forward) or OUT (if reversed).
    """
    mask = kmer_mask(k)
    if side == SIDE_OUT:
        neighbor = ((vertex << 2) | base) & mask
        entry = SIDE_IN
    else:
        neighbor = (base << (2 * (k - 1))) | (vertex >> 2)
        entry = SIDE_OUT
    rc = revcomp_int(neighbor, k)
    if rc < neighbor:
        return rc, SIDE_OUT if entry == SIDE_IN else SIDE_IN, True
    return neighbor, entry, False


class _GraphIndex:
    """Python-int vertices and their row lookup for traversal (a dict is
    faster than bisect per step)."""

    def __init__(self, graph: DeBruijnGraph) -> None:
        self.graph = graph
        self.vertices = graph.vertex_ints()
        self.rows = {v: i for i, v in enumerate(self.vertices)}

    def row(self, vertex: int) -> int | None:
        return self.rows.get(vertex)


def _walk(index: _GraphIndex, start_row: int, start_side: int,
          visited: np.ndarray) -> list[tuple[int, int]]:
    """Extend from a vertex through one side; returns (row, exit_side) path.

    Path entries are in traversal order starting *after* the start
    vertex.  Stops at branches, dead ends, visited vertices, or when the
    walk closes a cycle.
    """
    graph = index.graph
    k = graph.k
    path: list[tuple[int, int]] = []
    row, side = start_row, start_side
    while True:
        edges = _edges_on_side(graph.counts[row], side)
        if len(edges) != 1:
            return path
        vertex = index.vertices[row]
        base = edges[0]
        neighbor, entry_side, _ = _step(vertex, side, base, k)
        nrow = index.row(neighbor)
        if nrow is None or visited[nrow]:
            return path
        entry_edges = _edges_on_side(graph.counts[nrow], entry_side)
        if len(entry_edges) != 1:
            return path
        visited[nrow] = True
        exit_side = SIDE_OUT if entry_side == SIDE_IN else SIDE_IN
        path.append((nrow, exit_side))
        row, side = nrow, exit_side


def _spell(index: _GraphIndex, rows_and_sides: list[tuple[int, int]]) -> np.ndarray:
    """Spell the unitig sequence from the ordered (row, exit_side) chain.

    The first element's orientation anchors the spelling: a vertex
    exited through OUT is spelled forward, through IN reversed.
    """
    k = index.graph.k
    first_row, first_exit = rows_and_sides[0]
    first = index.vertices[first_row]
    if first_exit == SIDE_OUT:
        seq = list(int_to_codes(first, k))
    else:
        seq = list(int_to_codes(revcomp_int(first, k), k))
    for row, exit_side in rows_and_sides[1:]:
        vertex = index.vertices[row]
        spelled = vertex if exit_side == SIDE_OUT else revcomp_int(vertex, k)
        seq.append(int(spelled & 0x3))
    return np.array(seq, dtype=np.uint8)


def compact_unitigs(graph: DeBruijnGraph) -> list[Unitig]:
    """Compute all unitigs of the graph.

    Every vertex belongs to exactly one unitig; isolated and branching
    vertices become single-kmer unitigs.
    """
    n = graph.n_vertices
    index = _GraphIndex(graph)
    visited = np.zeros(n, dtype=bool)
    unitigs: list[Unitig] = []
    from .dbg import MULT_SLOT

    for row in range(n):
        if visited[row]:
            continue
        visited[row] = True
        # Walk backward through IN, then forward through OUT.
        back = _walk(index, row, SIDE_IN, visited)
        forward = _walk(index, row, SIDE_OUT, visited)
        # Backward path entries exited through some side; reverse them
        # and flip the exit side so the chain reads left-to-right.
        chain = [
            (r, SIDE_OUT if s == SIDE_IN else SIDE_IN) for r, s in reversed(back)
        ]
        chain.append((row, SIDE_OUT))
        chain.extend(forward)
        bases = _spell(index, chain)
        rows = tuple(r for r, _ in chain)
        mean_mult = float(np.mean([graph.counts[r, MULT_SLOT] for r in rows]))
        unitigs.append(
            Unitig(bases=bases, vertex_rows=rows, mean_multiplicity=mean_mult)
        )
    return unitigs


def count_junction_vertices(graph: DeBruijnGraph) -> int:
    """Vertices with branching (the 'junction kmers' bcalm2 MPHF-hashes)."""
    out_deg = (graph.counts[:, OUT_BASE : OUT_BASE + 4] > 0).sum(axis=1)
    in_deg = (graph.counts[:, IN_BASE : IN_BASE + 4] > 0).sum(axis=1)
    return int(((out_deg > 1) | (in_deg > 1)).sum())


def compaction_stats(unitigs: list[Unitig], k: int) -> dict:
    """Summary statistics of a compaction (N50 etc.)."""
    lengths = sorted((len(u) for u in unitigs), reverse=True)
    total = sum(lengths)
    n50 = 0
    acc = 0
    for length in lengths:
        acc += length
        if acc >= total / 2:
            n50 = length
            break
    return {
        "n_unitigs": len(unitigs),
        "total_bases": total,
        "longest": lengths[0] if lengths else 0,
        "n50": n50,
        "mean_length": total / len(unitigs) if unitigs else 0.0,
    }
