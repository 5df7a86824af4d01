"""Property-based tests for the two-word (big-K) substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigk.kmer2w import (
    canonical2w_with_flip,
    join_planes,
    kmers2w_from_reads,
    revcomp2w,
    split_int,
)
from repro.graph.dbg import graph_from_pairs
from repro.bigk.table import TwoWordHashTable
from repro.dna.kmer import canonical_int, revcomp_int

big_ks = st.integers(33, 63)


class TestPlaneProperties:
    @given(big_ks, st.data())
    def test_split_join_roundtrip(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        assert join_planes(hi, lo) == kmer

    @given(big_ks, st.data())
    @settings(max_examples=40)
    def test_revcomp_matches_scalar(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        rhi, rlo = revcomp2w(np.array([hi], dtype=np.uint64),
                             np.array([lo], dtype=np.uint64), k)
        assert join_planes(int(rhi[0]), int(rlo[0])) == revcomp_int(kmer, k)

    @given(big_ks, st.data())
    @settings(max_examples=40)
    def test_canonical_matches_scalar(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        chi, clo, flip = canonical2w_with_flip(
            np.array([hi], dtype=np.uint64), np.array([lo], dtype=np.uint64), k
        )
        expected = canonical_int(kmer, k)
        assert join_planes(int(chi[0]), int(clo[0])) == expected
        assert bool(flip[0]) == (expected != kmer)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_extraction_matches_scalar(self, seed):
        from repro.dna.kmer import iter_kmers

        rng = np.random.default_rng(seed)
        k = int(rng.integers(33, 64))
        length = k + int(rng.integers(0, 20))
        codes = rng.integers(0, 4, size=(2, length), dtype=np.uint8)
        hi, lo = kmers2w_from_reads(codes, k)
        for i in range(2):
            for j, ref in enumerate(iter_kmers(codes[i], k)):
                assert join_planes(hi[i, j], lo[i, j]) == ref


class TestBigKConstructionProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_table_equals_sortmerge(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(33, 64))
        n = int(rng.integers(1, 300))
        hi = rng.integers(0, 1 << (2 * (k - 32)), size=n, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        slots = rng.integers(0, 9, size=n).astype(np.int64)
        table = TwoWordHashTable(1024, k)
        table.insert_batch(hi, lo, slots)
        assert table.to_graph().equals(graph_from_pairs(k, hi, lo, slots))
