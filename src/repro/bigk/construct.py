"""Merging two-word subgraphs, plus the benchmark's kernel aliases.

Big-k construction has no pipeline of its own: MSP is k-agnostic as
long as the minimizer length P fits one word (P <= 31), and Step 2 —
kmer packing, observations, pre-aggregation and the table — runs the
width-generic kernels of :mod:`repro.core.subgraph` over two key planes
(``hi``, ``lo``).  :func:`repro.core.parahash.build_debruijn_graph` and
:class:`repro.core.parahash.ParaHash` build any ``k <= 63``.
"""

from __future__ import annotations

import numpy as np

from ..core.subgraph import block_observations, preaggregate_observations
from ..msp.records import SuperkmerBlock
from .store import BigDeBruijnGraph

# perfbench/replay.py reads these three names to time the two-word
# kernels; they are the width-generic functions.
flat_kmers_2w = SuperkmerBlock.flat_kmers
block_observations_2w = block_observations
preaggregate_observations_2w = preaggregate_observations


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
