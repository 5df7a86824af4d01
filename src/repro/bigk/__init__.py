"""Big-K support: the two-word (33 <= K <= 63) kmer substrate and table.

The paper's hash entries are explicitly not limited to a machine word.
A Step-2 key is ``W`` uint64 planes — one for ``k <= 31``, two for
``33 <= k <= 63`` — and one width-generic path serves both widths: the
Step-2 kernels (:mod:`repro.core.subgraph`), the table
(:class:`repro.core.hashtable.PlaneHashTable`) and the graph store, its
files and merges (:mod:`repro.graph`).  This subpackage holds what is
specific to two planes: the ``(hi, lo)`` kmer substrate (reverse
complement, canonical form) and the key encoding of
:class:`TwoWordHashTable`, the multi-word case the state-transfer
protocol exists for.  The graph names below (``BigDeBruijnGraph``,
``save_big_graph``, ``load_big_graph``, ``merge_bigk_disjoint``) are
aliases of the one store's, kept only for the frozen benchmark.
"""

from ..graph.serialize import load_graph as load_big_graph
from ..graph.serialize import save_graph as save_big_graph
from .construct import merge_bigk_disjoint
from .kmer2w import (
    LO_BASES,
    MAX_2W_K,
    canonical2w_with_flip,
    hi_bases,
    join_planes,
    kmers2w_from_reads,
    less2w,
    revcomp2w,
    split_int,
)
from .store import BigDeBruijnGraph, build_reference_bigk_slow
from .table import TwoWordHashTable, hash_planes, hash_planes_int

__all__ = [
    "BigDeBruijnGraph",
    "LO_BASES",
    "MAX_2W_K",
    "TwoWordHashTable",
    "build_reference_bigk_slow",
    "canonical2w_with_flip",
    "hash_planes",
    "hash_planes_int",
    "hi_bases",
    "join_planes",
    "kmers2w_from_reads",
    "less2w",
    "load_big_graph",
    "merge_bigk_disjoint",
    "revcomp2w",
    "save_big_graph",
    "split_int",
]
