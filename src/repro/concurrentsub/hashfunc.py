"""Hash functions for kmers, minimizers and multi-word keys.

The same 64-bit mixer is used for (a) routing superkmers to partitions
("a value computed from the minimizer's hash bit value with a modulo of
the number of partitions", §III-B) and (b) indexing the open-addressing
hash tables of Step 2.  The mixer is the splitmix64 finalizer — a full
avalanche bijection on 64-bit words, so distinct minimizers spread
uniformly over partitions and table slots.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = np.asarray(values, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
    return x


def mix64_int(value: int) -> int:
    """Scalar splitmix64 finalizer (matches :func:`mix64` bit-for-bit)."""
    x = value & _MASK64
    x ^= x >> 30
    x = (x * _M1_INT) & _MASK64
    x ^= x >> 27
    x = (x * _M2_INT) & _MASK64
    x ^= x >> 31
    return x


def hash_planes(*planes: np.ndarray) -> np.ndarray:
    """64-bit hash of keys split over W uint64 planes (vectorized).

    ``h = mix64(p0)``, then ``h = mix64(p ^ (h + golden))`` for each
    further plane; at W = 1 this is exactly :func:`mix64`, so one-word
    probe sequences do not depend on the fold.
    """
    h = mix64(planes[0])
    for plane in planes[1:]:
        with np.errstate(over="ignore"):
            h = mix64(np.asarray(plane, dtype=np.uint64) ^ (h + _GOLDEN))
    return h


def hash_planes_int(*planes: int) -> int:
    """Scalar twin of :func:`hash_planes` (matches it bit-for-bit)."""
    h = mix64_int(planes[0])
    for plane in planes[1:]:
        h = mix64_int(plane ^ ((h + _GOLDEN_INT) & _MASK64))
    return h


def hash_words(words: tuple[int, ...] | list[int]) -> int:
    """Hash a multi-word key by folding mixed words.

    ParaHash keys are not limited to one machine word (§I); the fold
    keeps the full key's entropy while producing a single 64-bit index.
    """
    acc = 0
    for w in words:
        acc = mix64_int((acc + _GOLDEN_INT + (w & _MASK64)) & _MASK64)
    return acc


def partition_ids(minimizers: np.ndarray, n_partitions: int) -> np.ndarray:
    """Superkmer partition id: ``mix64(minimizer) % n_partitions``."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    return (mix64(minimizers) % np.uint64(n_partitions)).astype(np.int64)


def table_slots(kmers: np.ndarray, capacity: int) -> np.ndarray:
    """Initial probe slot for each kmer in a power-of-two sized table."""
    if capacity < 1 or capacity & (capacity - 1):
        raise ValueError(f"capacity must be a positive power of two, got {capacity}")
    return (mix64(kmers) & np.uint64(capacity - 1)).astype(np.int64)
