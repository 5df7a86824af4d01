"""Superkmer records and partition blocks.

A superkmer partition holds superkmers plus **two extra base pairs** of
adjacency context (§III-B): the read base immediately before and
immediately after the superkmer, when they exist.  The original MSP
algorithm lost this adjacency information, so the final graph could not
be constructed from its partitions; carrying the extensions is
ParaHash's fix.

In memory a partition is a :class:`SuperkmerBlock` — a structure of
arrays (flat base codes + offsets + extension bases) so that kmer and
edge generation over a whole partition is vectorizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import decode
from ..dna.kmer import key_plane_bases, kmer_mask

#: Extension sentinel: the superkmer touches the read boundary.
NO_EXT = -1


@dataclass(frozen=True)
class SuperkmerRecord:
    """One superkmer with its adjacency extensions (row form, for tests)."""

    bases: np.ndarray  # uint8 codes, length >= k
    left_ext: int  # base code before the superkmer, or NO_EXT
    right_ext: int  # base code after the superkmer, or NO_EXT

    def n_kmers(self, k: int) -> int:
        return len(self.bases) - k + 1

    def to_str(self) -> str:
        return decode(self.bases)


class SuperkmerBlock:
    """A partition's superkmers as a structure of arrays.

    Attributes
    ----------
    k:
        Kmer length.
    bases:
        Flat uint8 array: all superkmer base codes, concatenated.
    offsets:
        int64 array of length ``n + 1``; superkmer ``i`` occupies
        ``bases[offsets[i] : offsets[i + 1]]``.
    left_ext / right_ext:
        int8 arrays of length ``n``: extension base codes or
        :data:`NO_EXT`.
    """

    def __init__(
        self,
        k: int,
        bases: np.ndarray,
        offsets: np.ndarray,
        left_ext: np.ndarray,
        right_ext: np.ndarray,
    ) -> None:
        self.k = int(k)
        self.bases = np.asarray(bases, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.left_ext = np.asarray(left_ext, dtype=np.int8)
        self.right_ext = np.asarray(right_ext, dtype=np.int8)
        self._validate()

    def _validate(self) -> None:
        if self.offsets.size == 0 or self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if int(self.offsets[-1]) != self.bases.size:
            raise ValueError("offsets must end at len(bases)")
        lengths = np.diff(self.offsets)
        if lengths.size and int(lengths.min()) < self.k:
            raise ValueError(f"every superkmer must have >= k={self.k} bases")
        n = lengths.size
        if self.left_ext.shape != (n,) or self.right_ext.shape != (n,):
            raise ValueError("extension arrays must have one entry per superkmer")

    # -- sizes ---------------------------------------------------------------

    @property
    def n_superkmers(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def lengths(self) -> np.ndarray:
        """Base length of each superkmer."""
        return np.diff(self.offsets)

    @property
    def kmers_per_superkmer(self) -> np.ndarray:
        return self.lengths - (self.k - 1)

    def total_kmers(self) -> int:
        return int(self.kmers_per_superkmer.sum())

    def total_bases(self) -> int:
        return int(self.bases.size)

    def __len__(self) -> int:
        return self.n_superkmers

    # -- access ----------------------------------------------------------------

    def record(self, i: int) -> SuperkmerRecord:
        """Row form of superkmer ``i``."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return SuperkmerRecord(
            bases=self.bases[lo:hi].copy(),
            left_ext=int(self.left_ext[i]),
            right_ext=int(self.right_ext[i]),
        )

    def iter_records(self):
        for i in range(self.n_superkmers):
            yield self.record(i)

    # -- kmer generation --------------------------------------------------------

    def flat_kmers(self) -> tuple[np.ndarray, ...]:
        """All kmers of the block with their flat base positions.

        Returns ``(*planes, positions)``: ``W`` uint64 key planes (one
        for ``k <= 31``, the ``(hi, lo)`` pair for ``33 <= k <= 63``;
        see :func:`repro.dna.kmer.key_plane_bases`) where the planes'
        ``i``-th entries pack the kmer starting at
        ``bases[positions[i]]``.  Kmers never span superkmer
        boundaries.  Vectorized as a k-tap shifted-add per plane over
        the flat base array (no per-superkmer Python loop).
        """
        k = self.k
        widths = key_plane_bases(k)
        if self.n_superkmers == 0:
            empty = [np.zeros(0, dtype=np.uint64) for _ in widths]
            return (*empty, np.zeros(0, dtype=np.int64))
        per_sk = self.kmers_per_superkmer
        total = int(per_sk.sum())
        # positions of every valid kmer start, grouped by superkmer
        starts = np.repeat(self.offsets[:-1], per_sk)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(per_sk)[:-1])), per_sk
        )
        positions = starts + ramp
        # k-tap evaluation over the flat array, one plane at a time:
        # plane[i] = sum b[i+first+j] << 2(width-1-j)
        t = self.bases.size
        flat = self.bases.astype(np.uint64)
        planes = []
        first = 0
        for width in widths:
            values = np.zeros(t - k + 1, dtype=np.uint64)
            for j in range(width):
                shift = np.uint64(2 * (width - 1 - j))
                values |= flat[first + j : t - k + 1 + first + j] << shift
            planes.append(values[positions])
            first += width
        return (*planes, positions)

    def packed_mask(self) -> int:
        return kmer_mask(self.k)

    def byte_size_encoded(self) -> int:
        """Bytes this block occupies in the 2-bit partition file format.

        Per record: 2-byte length + 1-byte extension flags + packed
        bases (4 per byte).  Used for the encoding-ablation benchmark.
        """
        lengths = self.lengths
        return int((3 + (lengths + 3) // 4).sum())

    def byte_size_text(self) -> int:
        """Bytes of the equivalent plain-text representation (1 byte per
        base, extensions as 2 extra characters, newline terminator)."""
        lengths = self.lengths
        return int((lengths + 3).sum())


def block_from_records(k: int, records: list[SuperkmerRecord]) -> SuperkmerBlock:
    """Assemble a block from row-form records (test helper)."""
    if records:
        bases = np.concatenate([r.bases for r in records])
        offsets = np.concatenate(
            ([0], np.cumsum([len(r.bases) for r in records]))
        ).astype(np.int64)
        left = np.array([r.left_ext for r in records], dtype=np.int8)
        right = np.array([r.right_ext for r in records], dtype=np.int8)
    else:
        bases = np.zeros(0, dtype=np.uint8)
        offsets = np.zeros(1, dtype=np.int64)
        left = np.zeros(0, dtype=np.int8)
        right = np.zeros(0, dtype=np.int8)
    return SuperkmerBlock(k=k, bases=bases, offsets=offsets, left_ext=left, right_ext=right)


def empty_block(k: int) -> SuperkmerBlock:
    return block_from_records(k, [])


def concat_blocks(blocks: list[SuperkmerBlock]) -> SuperkmerBlock:
    """Concatenate blocks of the same k (accumulating a partition across
    input pieces, as Step 1 does over the whole input)."""
    blocks = [b for b in blocks if b.n_superkmers]
    if not blocks:
        raise ValueError("need at least one non-empty block (or use empty_block)")
    k = blocks[0].k
    if any(b.k != k for b in blocks):
        raise ValueError("all blocks must share k")
    bases = np.concatenate([b.bases for b in blocks])
    sizes = [b.offsets[-1] for b in blocks]
    shifts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offsets = np.concatenate(
        [np.asarray([0], dtype=np.int64)]
        + [b.offsets[1:] + shift for b, shift in zip(blocks, shifts)]
    )
    return SuperkmerBlock(
        k=k,
        bases=bases,
        offsets=offsets,
        left_ext=np.concatenate([b.left_ext for b in blocks]),
        right_ext=np.concatenate([b.right_ext for b in blocks]),
    )
