"""Two-word (128-bit) kmer operations for 31 < K <= 63.

The paper stresses that ParaHash's hash entries are **not limited to a
machine word** (§I: "the type of our hash table entry is not limited by
the machine word size"), unlike CAS-based GPU tables [Alcantara et al.]
— kmer lengths of "several base pairs to tens of base pairs" need
multi-word keys (§II-C).

This module is the vectorized two-word substrate: a kmer is a pair of
uint64 *planes* ``(hi, lo)`` where ``lo`` holds the 32 rightmost bases
and ``hi`` the remaining ``k - 32`` leftmost ones.  All operations
(batch extraction, reverse complement, canonical form, lexicographic
comparison) work on parallel plane arrays.  Scalar Python-int
equivalents in :mod:`repro.dna.kmer` serve as the ground truth.
"""

from __future__ import annotations

import numpy as np

from ..dna.kmer import revcomp_u64, split_key

#: Bases held by the low plane.
LO_BASES = 32
#: Largest K supported by the two-word representation.
MAX_2W_K = 63


def check_2w_k(k: int) -> None:
    if not LO_BASES < k <= MAX_2W_K:
        raise ValueError(
            f"two-word kmers require {LO_BASES} < k <= {MAX_2W_K}, got {k}"
        )


def hi_bases(k: int) -> int:
    """Bases held by the high plane."""
    check_2w_k(k)
    return k - LO_BASES


def split_int(kmer: int, k: int) -> tuple[int, int]:
    """Split a Python-int kmer into (hi, lo) plane values."""
    check_2w_k(k)
    return split_key(kmer, k)


def join_planes(hi: int, lo: int) -> int:
    """Inverse of :func:`split_int`."""
    return (int(hi) << (2 * LO_BASES)) | int(lo)


def kmers2w_from_reads(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract all two-word kmers from a batch of equal-length reads.

    Returns ``(hi, lo)`` plane matrices of shape
    ``(n_reads, L - k + 1)``.  Rolling update: appending a base shifts
    the low plane left and carries its top base into the high plane.
    """
    check_2w_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-D (n_reads, L) matrix")
    n, length = codes.shape
    if length < k:
        raise ValueError(f"read length {length} shorter than k={k}")
    n_kmers = length - k + 1
    hi = np.empty((n, n_kmers), dtype=np.uint64)
    lo = np.empty((n, n_kmers), dtype=np.uint64)
    two = np.uint64(2)
    hi_mask = np.uint64((1 << (2 * hi_bases(k))) - 1)
    carry_shift = np.uint64(2 * (LO_BASES - 1))
    cur_hi = np.zeros(n, dtype=np.uint64)
    cur_lo = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        carry = cur_lo >> carry_shift  # top base leaving the low plane
        cur_hi = ((cur_hi << two) | carry) & hi_mask
        cur_lo = (cur_lo << two) | codes[:, j].astype(np.uint64)
    hi[:, 0], lo[:, 0] = cur_hi, cur_lo
    for j in range(k, length):
        carry = cur_lo >> carry_shift
        cur_hi = ((cur_hi << two) | carry) & hi_mask
        cur_lo = (cur_lo << two) | codes[:, j].astype(np.uint64)
        hi[:, j - k + 1], lo[:, j - k + 1] = cur_hi, cur_lo
    return hi, lo


def revcomp2w(hi: np.ndarray, lo: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reverse complement of two-word kmers, vectorized.

    The reverse complement of the concatenation ``hi ++ lo`` is
    ``rc(lo) ++ rc(hi)``, realigned to the plane split: ``rc(lo)`` (32
    bases) supplies the new high plane's ``k - 32`` bases plus the top
    of the new low plane, and ``rc(hi)`` fills the remainder.
    """
    check_2w_k(k)
    hb = hi_bases(k)
    rc_lo = revcomp_u64(np.asarray(lo, dtype=np.uint64), LO_BASES)  # 32 bases
    rc_hi = revcomp_u64(np.asarray(hi, dtype=np.uint64), hb)  # hb bases
    # New sequence: rc_lo's 32 bases followed by rc_hi's hb bases.
    # High plane = first hb bases of rc_lo.
    new_hi = rc_lo >> np.uint64(2 * (LO_BASES - hb))
    # Low plane = remaining (32 - hb) bases of rc_lo then all of rc_hi.
    keep = LO_BASES - hb
    keep_mask = np.uint64((1 << (2 * keep)) - 1) if keep else np.uint64(0)
    new_lo = ((rc_lo & keep_mask) << np.uint64(2 * hb)) | rc_hi
    return new_hi, new_lo


def less2w(a_hi: np.ndarray, a_lo: np.ndarray,
           b_hi: np.ndarray, b_lo: np.ndarray) -> np.ndarray:
    """Elementwise lexicographic ``a < b`` on plane pairs."""
    return (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))


def canonical2w_with_flip(
    hi: np.ndarray, lo: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical plane pair plus the flipped flag, vectorized."""
    rc_hi, rc_lo = revcomp2w(hi, lo, k)
    flipped = less2w(rc_hi, rc_lo, hi, lo)
    can_hi = np.where(flipped, rc_hi, hi)
    can_lo = np.where(flipped, rc_lo, lo)
    return can_hi, can_lo, flipped


def planes_to_ints(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Plane arrays to Python-int kmers (test/debug helper)."""
    return [join_planes(h, l) for h, l in zip(np.ravel(hi), np.ravel(lo))]
