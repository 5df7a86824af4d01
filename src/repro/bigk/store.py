"""Two-word names for the one graph store, kept for the frozen benchmark.

Graphs of every key width are :class:`repro.graph.dbg.DeBruijnGraph`;
the pure-Python reference construction
(:func:`repro.graph.build.build_reference_graph_slow`) is the ground
truth for ``k > 31`` too.
"""

from __future__ import annotations

from ..graph.build import build_reference_graph_slow as build_reference_bigk_slow
from ..graph.dbg import DeBruijnGraph

__all__ = ["BigDeBruijnGraph", "build_reference_bigk_slow"]


def BigDeBruijnGraph(k, vertices_hi, vertices_lo, counts) -> DeBruijnGraph:
    return DeBruijnGraph(k, (vertices_hi, vertices_lo), counts)
