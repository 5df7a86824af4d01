"""Reference graphs every benchmarked build is checked against.

For ``k <= 31`` the oracle is :func:`repro.graph.build.build_reference_graph`:
one whole-input pass with no partitioning, hashing or concurrency.

For ``k > 31`` the repository's only reference is the per-read pure-Python
:func:`repro.bigk.build_reference_bigk_slow` (about a minute on a benchmark
input).  :func:`reference_bigk` is a vectorized equivalent written here
without any of the build's kernels: it reads the two k-mer planes and their
reverse complements straight off the read matrix and counts with one
``bincount``.  The self-tests pin it to the slow reference.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dbg import IN_BASE, MULT_SLOT, N_SLOTS, OUT_BASE

LO_BASES = 32  # bases in the low word of a two-word k-mer


def reference_graph(reads, k: int):
    """The exact graph a build of ``reads`` at ``k`` must produce."""
    if k <= 31:
        from repro.graph.build import build_reference_graph

        return build_reference_graph(reads, k)
    return reference_bigk(reads, k)


def _pack(codes: np.ndarray, first: int, n_bases: int, n_kmers: int,
          reverse: bool) -> np.ndarray:
    """One word per k-mer holding ``n_bases`` bases of it.

    Forward: bases ``first .. first+n_bases-1`` of each k-mer.  Reverse:
    the same positions of its reverse complement, whose base ``t`` is the
    complement of forward base ``k-1-t``; the caller passes ``first``
    already mirrored.
    """
    word = np.zeros(codes.shape[:1] + (n_kmers,), dtype=np.uint64)
    for t in range(n_bases):
        if reverse:
            col = 3 - codes[:, first - t: first - t + n_kmers].astype(np.int64)
        else:
            col = codes[:, first + t: first + t + n_kmers].astype(np.int64)
        word |= col.astype(np.uint64) << np.uint64(2 * (n_bases - 1 - t))
    return word


def reference_bigk(reads, k: int):
    """Whole-input two-word De Bruijn graph (``32 < k <= 63``)."""
    from repro.bigk.store import BigDeBruijnGraph

    if not LO_BASES < k <= 63:
        raise ValueError(f"two-word reference needs 32 < k <= 63, got {k}")
    codes = np.asarray(reads.codes, dtype=np.uint8)
    n_kmers = codes.shape[1] - k + 1
    hb = k - LO_BASES
    fwd_hi = _pack(codes, 0, hb, n_kmers, reverse=False)
    fwd_lo = _pack(codes, hb, LO_BASES, n_kmers, reverse=False)
    rc_hi = _pack(codes, k - 1, hb, n_kmers, reverse=True)
    rc_lo = _pack(codes, k - 1 - hb, LO_BASES, n_kmers, reverse=True)
    flip = (rc_hi < fwd_hi) | ((rc_hi == fwd_hi) & (rc_lo < fwd_lo))
    hi = np.where(flip, rc_hi, fwd_hi)
    lo = np.where(flip, rc_lo, fwd_lo)

    # Vertex ids: rank of each canonical (hi, lo) among the distinct ones.
    order = np.lexsort((lo.ravel(), hi.ravel()))
    shi, slo = hi.ravel()[order], lo.ravel()[order]
    new = np.ones(shi.size, dtype=bool)
    new[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    vid = np.empty(shi.size, dtype=np.int64)
    vid[order] = np.cumsum(new) - 1
    vid = vid.reshape(hi.shape)
    n_vertices = int(new.sum())

    # Successor of k-mer j is base j+k; predecessor of k-mer j is base j-1.
    # A flipped k-mer sees both edges from the reverse strand.
    nxt = codes[:, k:].astype(np.int64)
    prv = codes[:, : n_kmers - 1].astype(np.int64)
    succ = np.where(flip[:, :-1], IN_BASE + 3 - nxt, OUT_BASE + nxt)
    pred = np.where(flip[:, 1:], OUT_BASE + 3 - prv, IN_BASE + prv)
    keys = np.concatenate([
        vid.ravel() * N_SLOTS + MULT_SLOT,
        vid[:, :-1].ravel() * N_SLOTS + succ.ravel(),
        vid[:, 1:].ravel() * N_SLOTS + pred.ravel(),
    ])
    counts = np.bincount(keys, minlength=n_vertices * N_SLOTS)
    return BigDeBruijnGraph(
        k=k, vertices_hi=shi[new], vertices_lo=slo[new],
        counts=counts.reshape(n_vertices, N_SLOTS).astype(np.uint64),
    )


def _vertex_planes(graph) -> list[np.ndarray]:
    if hasattr(graph, "vertices_hi"):
        return [graph.vertices_hi, graph.vertices_lo]
    return [graph.vertices]


def graph_mismatch(got, want) -> str | None:
    """Why ``got`` differs from the oracle graph ``want``, or ``None``."""
    if got.k != want.k:
        return f"k {got.k} != {want.k}"
    got_v, want_v = _vertex_planes(got), _vertex_planes(want)
    if len(got_v) != len(want_v):
        return "vertex key width differs"
    if got_v[0].size != want_v[0].size:
        return f"{got_v[0].size} vertices, oracle has {want_v[0].size}"
    for a, b in zip(got_v, want_v):
        if not np.array_equal(a, b):
            return f"vertex keys differ at {int(np.argmax(a != b))}"
    if not np.array_equal(got.counts, want.counts):
        row = int(np.argmax((got.counts != want.counts).any(axis=1)))
        return (f"counts differ at vertex {row}: "
                f"{got.counts[row].tolist()} != {want.counts[row].tolist()}")
    return None


def load_saved_graph(path, k: int):
    """Read back a graph a build saved with ``save_graph``/``save_big_graph``."""
    if k <= 31:
        from repro.graph.serialize import load_graph

        return load_graph(path)
    from repro.bigk import load_big_graph

    return load_big_graph(path)
