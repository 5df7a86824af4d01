"""K-mer extraction, reverse complement and canonical form.

A *kmer* is a length-K substring of a read; every kmer generated from
the input reads is a candidate vertex of the De Bruijn graph (paper
§II-A).  Because a DNA sequence has a reverse complement, a graph vertex
is represented by the **canonical** kmer — the lexicographically smaller
of a kmer and its reverse complement — and the constructed graph is
bi-directed.

Two representations are provided:

* a **vectorized uint64 path** for ``K <= 31`` (the paper uses K = 27),
  where a kmer is the 2K low bits of a ``numpy.uint64`` and whole read
  batches are processed with array operations; and
* a **scalar Python-int path** for arbitrary K, used by the reference
  implementations and the multi-word hash-table keys.
"""

from __future__ import annotations

import numpy as np

from .alphabet import decode
from .encoding import int_to_codes

#: Largest K supported by the vectorized uint64 representation.
MAX_U64_K = 31
#: Bases one uint64 word holds.
_WORD_BASES = 32

# Lookup table: byte value -> byte with its four 2-bit fields reversed.
# Used to reverse the base order of a packed uint64 kmer.
_PAIR_REVERSE = np.empty(256, dtype=np.uint8)
for _b in range(256):
    _PAIR_REVERSE[_b] = (
        ((_b & 0x03) << 6) | ((_b & 0x0C) << 2) | ((_b & 0x30) >> 2) | ((_b & 0xC0) >> 6)
    )


def kmer_mask(k: int) -> int:
    """Bit mask covering the 2K bits of a packed kmer."""
    _check_k(k)
    return (1 << (2 * k)) - 1


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def key_planes(k: int) -> int:
    """W, the number of uint64 planes a Step-2 key of length ``k`` spans.

    W = 1 for ``k <= 31`` and W = 2 for ``33 <= k <= 63``.  ``k = 32``
    is rejected: a one-word lock-free tag needs ``2k <= 62`` bits and a
    two-word key needs a non-empty high plane.
    """
    if 1 <= k <= MAX_U64_K:
        return 1
    if _WORD_BASES < k <= 2 * _WORD_BASES - 1:
        return 2
    raise ValueError(
        f"k must be in 1..{MAX_U64_K} (one-word keys) or "
        f"{_WORD_BASES + 1}..{2 * _WORD_BASES - 1} (two-word keys), got {k}"
    )


def key_plane_bases(k: int) -> tuple[int, ...]:
    """Bases held by each key plane, most significant plane first.

    The last plane holds the 32 rightmost bases of a two-word key and
    the first one the ``k - 32`` leftmost (:mod:`repro.bigk.kmer2w`).
    """
    if key_planes(k) == 1:
        return (k,)
    return (k - _WORD_BASES, _WORD_BASES)


def split_key(kmer: int, k: int) -> tuple[int, ...]:
    """A Python-int kmer as its key-plane values, most significant first.

    The top plane is not masked, so a value beyond ``4**k`` stays out of
    range instead of aliasing a valid kmer.
    """
    values = []
    for bases in reversed(key_plane_bases(k)[1:]):
        values.append(kmer & ((1 << (2 * bases)) - 1))
        kmer >>= 2 * bases
    return (kmer, *reversed(values))


def join_key(values, k: int) -> int:
    """Inverse of :func:`split_key`: key-plane values back to one int."""
    kmer = 0
    for value, bases in zip(values, key_plane_bases(k)):
        kmer = (kmer << (2 * bases)) | int(value)
    return kmer


def _check_u64_k(k: int) -> None:
    _check_k(k)
    if k > MAX_U64_K:
        raise ValueError(f"uint64 kmer path requires k <= {MAX_U64_K}, got {k}")


# ---------------------------------------------------------------------------
# Vectorized uint64 path
# ---------------------------------------------------------------------------

def kmers_from_reads(codes: np.ndarray, k: int) -> np.ndarray:
    """Extract all kmers from a batch of equal-length reads.

    Parameters
    ----------
    codes:
        ``(n_reads, L)`` uint8 matrix of 2-bit base codes.
    k:
        Kmer length, at most :data:`MAX_U64_K`.

    Returns
    -------
    numpy.ndarray
        ``(n_reads, L - k + 1)`` uint64 matrix; element ``[i, j]`` is the
        packed kmer ``reads[i][j : j + k]``.
    """
    _check_u64_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-D (n_reads, L) matrix")
    n, length = codes.shape
    if length < k:
        raise ValueError(f"read length {length} shorter than k={k}")
    n_kmers = length - k + 1
    out = np.empty((n, n_kmers), dtype=np.uint64)
    two = np.uint64(2)
    mask = np.uint64(kmer_mask(k))
    cur = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        cur = (cur << two) | codes[:, j].astype(np.uint64)
    out[:, 0] = cur
    for j in range(k, length):
        cur = ((cur << two) | codes[:, j].astype(np.uint64)) & mask
        out[:, j - k + 1] = cur
    return out


def revcomp_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of packed uint64 kmers, vectorized.

    Complementing a 2-bit code is ``code ^ 3``; reversing the base order
    of the packed word is done byte-wise with a pair-reversal lookup
    table followed by a shift to drop the padding.

    Accepts ``k`` up to 32 (a full word): the two-word big-K substrate
    reverse-complements its 32-base low plane through this function.
    """
    _check_k(k)
    if k > 32:
        raise ValueError(f"revcomp_u64 requires k <= 32, got {k}")
    kmers = np.ascontiguousarray(kmers, dtype=np.uint64)
    shape = kmers.shape
    flat = kmers.reshape(-1)
    mask = np.uint64(kmer_mask(k) & 0xFFFFFFFFFFFFFFFF)
    comp = (flat ^ mask) & mask
    as_bytes = comp.view(np.uint8).reshape(-1, 8)
    reversed_bytes = _PAIR_REVERSE[as_bytes[:, ::-1]]
    full = np.ascontiguousarray(reversed_bytes).view(np.uint64).reshape(-1)
    shift = np.uint64(64 - 2 * k)
    return (full >> shift).reshape(shape)


def canonical_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form (minimum of kmer and reverse complement), vectorized."""
    rc = revcomp_u64(kmers, k)
    return np.minimum(np.asarray(kmers, dtype=np.uint64), rc)


def canonical_with_flip(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical kmers plus a boolean flag marking which were flipped.

    ``flipped[i]`` is ``True`` when the canonical form is the reverse
    complement of the input kmer (the input was not canonical).  Edge
    direction bookkeeping in the graph needs this flag.
    """
    kmers = np.asarray(kmers, dtype=np.uint64)
    rc = revcomp_u64(kmers, k)
    flipped = rc < kmers
    return np.where(flipped, rc, kmers), flipped


# ---------------------------------------------------------------------------
# Scalar Python-int path (arbitrary K)
# ---------------------------------------------------------------------------

def kmer_from_codes(codes: np.ndarray) -> int:
    """Pack a code array into a Python-int kmer (arbitrary length)."""
    value = 0
    for c in np.asarray(codes, dtype=np.uint8):
        value = (value << 2) | int(c)
    return value


def revcomp_int(kmer: int, k: int) -> int:
    """Reverse complement of a Python-int kmer."""
    _check_k(k)
    out = 0
    for _ in range(k):
        out = (out << 2) | ((kmer & 0x3) ^ 0x3)
        kmer >>= 2
    return out


def canonical_int(kmer: int, k: int) -> int:
    """Canonical form of a Python-int kmer."""
    return min(kmer, revcomp_int(kmer, k))


def kmer_to_str(kmer: int, k: int) -> str:
    """Decode a packed kmer to its DNA string."""
    return decode(int_to_codes(int(kmer), k))


def iter_kmers(codes: np.ndarray, k: int):
    """Yield each packed kmer of a single read (reference implementation).

    Slow but obviously correct; used as ground truth in tests.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    for i in range(len(codes) - k + 1):
        yield kmer_from_codes(codes[i : i + k])
