"""Subgraph construction from superkmer partitions (ParaHash Step 2).

For each superkmer in a partition we "generate multiple <kmer, edge>
pairs according to the superkmer length, and insert the <kmer, edge>
pairs in the hash table" (§III-C2).  Here the pair is a ``(canonical
kmer, counter slot)`` observation:

* every kmer instance contributes one multiplicity observation;
* every adjacent pair *inside* a superkmer contributes a successor
  observation on the left kmer and a predecessor observation on the
  right kmer;
* the partition's **extension bases** contribute the cut edges: the
  first kmer's predecessor and the last kmer's successor, when the
  superkmer did not touch the read boundary.

Because MSP routes all duplicates of a kmer to one partition, the union
of all subgraphs is exactly the reference graph — the test suite checks
this equality bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.kmer import canonical_with_flip
from ..graph.dbg import (
    MULT_SLOT,
    DeBruijnGraph,
    graph_from_pairs,
    slot_for_predecessor,
    slot_for_successor,
)
from ..msp.records import SuperkmerBlock
from .estimator import SizingPolicy, next_power_of_two
from .hashtable import HashStats, TableFullError, table_class


def _canonical_planes(
    planes: tuple[np.ndarray, ...], k: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Canonical key planes plus the flipped flag, for W = 1 or 2."""
    if len(planes) == 1:
        can, flip = canonical_with_flip(planes[0], k)
        return (can,), flip
    from ..bigk.kmer2w import canonical2w_with_flip

    hi, lo, flip = canonical2w_with_flip(*planes, k)
    return (hi, lo), flip


def block_observations(block: SuperkmerBlock) -> tuple[np.ndarray, ...]:
    """All ``(canonical vertex, counter slot)`` observations of a block.

    Returns ``(*planes, slots)``: the vertex as ``W`` uint64 key planes
    (one for ``k <= 31``, ``(hi, lo)`` for ``33 <= k <= 63``) and the
    counter slot.  Vectorized end to end; the arrays are parallel and
    ready for :meth:`PlaneHashTable.insert_batch` (or, for the
    sort-merge baselines, :func:`build_subgraph_sortmerge`).
    """
    k = block.k
    *kmer_planes, positions = block.flat_kmers()
    if block.n_superkmers == 0:
        return (*kmer_planes, np.zeros(0, dtype=np.int64))
    can, flip = _canonical_planes(tuple(kmer_planes), k)

    per_sk = block.kmers_per_superkmer
    total = int(per_sk.sum())
    sk_ids = np.repeat(np.arange(block.n_superkmers, dtype=np.int64), per_sk)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(per_sk)[:-1])), per_sk
    )
    is_first = ramp == 0
    is_last = ramp == (per_sk[sk_ids] - 1)

    bases = block.bases
    t = bases.size
    # Successor base: the base after the kmer inside the superkmer, or
    # the right extension for the superkmer's last kmer.
    succ_pos = np.minimum(positions + k, t - 1)
    next_base = bases[succ_pos].astype(np.int16)
    next_base[is_last] = block.right_ext[sk_ids[is_last]].astype(np.int16)
    # Predecessor base: the base before the kmer, or the left extension.
    pred_pos = np.maximum(positions - 1, 0)
    prev_base = bases[pred_pos].astype(np.int16)
    prev_base[is_first] = block.left_ext[sk_ids[is_first]].astype(np.int16)

    mult_s = np.full(total, MULT_SLOT, dtype=np.int64)

    has_succ = next_base >= 0
    succ_s = slot_for_successor(flip[has_succ], next_base[has_succ]).astype(np.int64)

    has_pred = prev_base >= 0
    pred_s = slot_for_predecessor(flip[has_pred], prev_base[has_pred]).astype(np.int64)

    planes = tuple(
        np.concatenate([plane, plane[has_succ], plane[has_pred]])
        for plane in can
    )
    slots = np.concatenate([mult_s, succ_s, pred_s])
    return (*planes, slots)


def preaggregate_observations(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Collapse duplicate ``(vertex, slot)`` observations into counts.

    Takes ``(*planes, slots)`` as :func:`block_observations` returns
    them and returns ``(*planes, slots, counts)``.

    The paper's inputs carry a ~4-6x kmer duplication ratio (§III-C):
    most observations re-touch a pair the table has already seen.
    Sorting and run-length encoding the observation arrays up front
    means each distinct pair pays exactly one probe walk and one
    counter write in :meth:`PlaneHashTable.insert_batch`, instead of
    one per duplicate.

    The returned arrays are parallel with ``counts >= 1``, ordered by
    ``(vertex, slot)``.  Feeding them to ``insert_batch(..., counts=...)``
    produces a table byte-identical to the un-aggregated insert, with
    ``HashStats`` still metered for the individual observations
    (lock-reduction numbers stay honest).
    """
    *planes, slots = arrays
    planes = [np.ascontiguousarray(p, dtype=np.uint64).ravel() for p in planes]
    slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
    if any(p.shape != slots.shape for p in planes):
        raise ValueError("key planes and slots must be parallel arrays")
    if slots.size == 0:
        return (*planes, slots, np.zeros(0, dtype=np.int64))
    order = np.lexsort((slots, *reversed(planes)))
    sorted_ = [p[order] for p in planes]
    ss = slots[order]
    boundary = np.empty(ss.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = ss[1:] != ss[:-1]
    for sp in sorted_:
        boundary[1:] |= sp[1:] != sp[:-1]
    starts = np.nonzero(boundary)[0]
    ends = np.concatenate([starts[1:], [ss.size]])
    counts = (ends - starts).astype(np.int64)
    return (*(sp[starts] for sp in sorted_), ss[starts], counts)


@dataclass
class SubgraphResult:
    """One constructed subgraph plus its construction telemetry.

    ``graph`` is a :class:`DeBruijnGraph` over the ``W`` key planes of
    ``k``, like every graph.
    """

    graph: DeBruijnGraph
    stats: HashStats
    capacity: int
    n_kmers: int
    table_bytes: int
    n_regrows: int = 0


def build_subgraph(
    block: SuperkmerBlock,
    policy: SizingPolicy | None = None,
    allow_regrow: bool = True,
    preaggregate: bool = False,
) -> SubgraphResult:
    """Construct one subgraph with the concurrent hash table.

    Runs at any supported ``k``: the table holds ``W`` key planes, one
    for ``k <= 31`` and two for ``33 <= k <= 63``
    (:func:`repro.core.hashtable.table_class`).

    Observations go through the vectorized batch path
    (:meth:`PlaneHashTable.insert_batch`).  ``preaggregate`` collapses
    duplicate ``(vertex, slot)`` observations via
    :func:`preaggregate_observations` before touching the table; the
    resulting graph and the metered ``HashStats.lock_reduction`` are
    identical, only the table-touching work shrinks.

    The table is sized once from Property 1 and, on genomic data, never
    resizes — that is the paper's design.  Inputs that violate the
    estimate (e.g. coverage < 1, where nearly every kmer is distinct)
    would overflow the fixed table; with ``allow_regrow`` the build
    retries with doubled capacity and reports ``n_regrows > 0`` so
    callers can see the estimate was breached.  With
    ``allow_regrow=False`` the overflow raises
    :class:`repro.core.hashtable.TableFullError` instead.
    """
    policy = policy or SizingPolicy()
    table_cls = table_class(block.k)
    n_kmers = block.total_kmers()
    capacity = policy.capacity_for(max(1, n_kmers))
    *planes, slots = block_observations(block)
    counts = None
    if preaggregate:
        *planes, slots, counts = preaggregate_observations(*planes, slots)
    n_regrows = 0
    while True:
        table = table_cls(capacity, block.k)
        try:
            table.insert_batch(*planes, slots, counts=counts)
            break
        except TableFullError:
            if not allow_regrow:
                raise
            # Hard upper bound: there cannot be more distinct vertices
            # than kmer instances, so capacity n_kmers/alpha always fits.
            if capacity >= next_power_of_two(max(2, int(n_kmers / policy.alpha) + 1)):
                raise
            capacity *= 2
            n_regrows += 1
    return SubgraphResult(
        graph=table.to_graph(),
        stats=table.stats,
        capacity=table.capacity,
        n_kmers=n_kmers,
        table_bytes=table.memory_bytes(),
        n_regrows=n_regrows,
    )


def build_subgraph_sortmerge(block: SuperkmerBlock):
    """Sort-merge construction of the same subgraph (§II-B's alternative).

    Used by baselines and as an independent oracle for the hash path,
    at either key width.
    """
    return graph_from_pairs(block.k, *block_observations(block))
