"""Big-K support: two-word (33 <= K <= 63) kmers, table and graph store.

The paper's hash entries are explicitly not limited to a machine word.
A Step-2 key is ``W`` uint64 planes — one for ``k <= 31``, two for
``33 <= k <= 63`` — and one width-generic Step-2 path
(:mod:`repro.core.subgraph`, :class:`repro.core.hashtable.PlaneHashTable`)
serves both widths.  This subpackage holds what is specific to two
planes: the ``(hi, lo)`` kmer substrate (reverse complement, canonical
form), the key encoding of :class:`TwoWordHashTable` (the multi-word
case the state-transfer protocol exists for), the
:class:`BigDeBruijnGraph` store with its PHB2 files, and compaction.
"""

from .compact import compact_unitigs_bigk
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
from .serialize import (
    detect_graph_format,
    load_big_graph,
    save_big_graph,
)
from .store import (
    BigDeBruijnGraph,
    build_reference_bigk_slow,
    empty_bigk_graph,
    graph_from_plane_pairs,
)
from .table import TwoWordHashTable, hash_planes, hash_planes_int

__all__ = [
    "BigDeBruijnGraph",
    "LO_BASES",
    "MAX_2W_K",
    "TwoWordHashTable",
    "build_reference_bigk_slow",
    "canonical2w_with_flip",
    "compact_unitigs_bigk",
    "detect_graph_format",
    "empty_bigk_graph",
    "load_big_graph",
    "save_big_graph",
    "graph_from_plane_pairs",
    "hash_planes",
    "hash_planes_int",
    "hi_bases",
    "join_planes",
    "kmers2w_from_reads",
    "less2w",
    "merge_bigk_disjoint",
    "revcomp2w",
    "split_int",
]
