"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.alphabet import decode, encode
from repro.dna.encoding import (
    codes_to_int,
    int_to_codes,
    int_to_words,
    pack_codes,
    unpack_codes,
    words_to_int,
)
from repro.dna.kmer import (
    canonical_int,
    canonical_u64,
    kmers_from_reads,
    revcomp_int,
    revcomp_u64,
)
from repro.dna.minimizer import (
    minimizer_of_kmer_ref,
    minimizers_for_reads,
    sliding_min,
    superkmers_of_read_ref,
)
from repro.dna.reads import ReadBatch
from repro.graph.build import build_reference_graph, build_reference_graph_slow
from repro.graph.validate import assert_graphs_equal, validate_full_graph

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=120)
code_arrays = st.lists(st.integers(0, 3), min_size=1, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestEncodingProperties:
    @given(dna_strings)
    def test_encode_decode_roundtrip(self, s):
        assert decode(encode(s)) == s

    @given(code_arrays)
    def test_pack_unpack_roundtrip(self, codes):
        assert np.array_equal(unpack_codes(pack_codes(codes), len(codes)), codes)

    @given(code_arrays)
    def test_int_roundtrip(self, codes):
        value = codes_to_int(codes)
        assert np.array_equal(int_to_codes(value, len(codes)), codes)

    @given(code_arrays)
    def test_words_roundtrip(self, codes):
        value = codes_to_int(codes)
        assert words_to_int(int_to_words(value, len(codes))) == value

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
           st.lists(st.integers(0, 3), min_size=2, max_size=40))
    def test_int_order_is_lexicographic(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        ia = codes_to_int(np.array(a, dtype=np.uint8))
        ib = codes_to_int(np.array(b, dtype=np.uint8))
        assert (ia < ib) == (a < b)


class TestKmerProperties:
    @given(st.integers(1, 31), st.data())
    def test_revcomp_involution(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        assert revcomp_int(revcomp_int(kmer, k), k) == kmer

    @given(st.integers(1, 31), st.data())
    def test_canonical_idempotent(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        c = canonical_int(kmer, k)
        assert canonical_int(c, k) == c
        assert c <= kmer

    @given(st.integers(1, 31), st.data())
    def test_canonical_strand_invariant(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        assert canonical_int(kmer, k) == canonical_int(revcomp_int(kmer, k), k)

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=30)
    def test_vectorized_matches_scalar(self, k, data):
        kmers = np.array(
            data.draw(st.lists(st.integers(0, (1 << (2 * k)) - 1),
                               min_size=1, max_size=50)),
            dtype=np.uint64,
        )
        rc = revcomp_u64(kmers, k)
        can = canonical_u64(kmers, k)
        for i in range(kmers.size):
            assert int(rc[i]) == revcomp_int(int(kmers[i]), k)
            assert int(can[i]) == canonical_int(int(kmers[i]), k)


class TestSlidingMinProperties:
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
           st.integers(1, 60))
    def test_matches_naive(self, xs, w):
        if w > len(xs):
            w = len(xs)
        a = np.array(xs)
        got = sliding_min(a, w)
        for i in range(len(xs) - w + 1):
            assert got[i] == min(xs[i : i + w])


class TestSuperkmerProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(5, 20), st.integers(1, 20))
    @settings(max_examples=40)
    def test_decomposition_covers_once(self, seed, k, p):
        p = min(p, k)
        rng = np.random.default_rng(seed)
        length = int(rng.integers(k, k + 50))
        codes = rng.integers(0, 4, size=length, dtype=np.uint8)
        groups = superkmers_of_read_ref(codes, k, p)
        # Tiles [0, n_kmers) without gaps or overlaps.
        pos = 0
        for start, n, _ in groups:
            assert start == pos
            assert n >= 1
            pos += n
        assert pos == length - k + 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_vectorized_minimizers_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 16))
        p = int(rng.integers(1, k + 1))
        codes = rng.integers(0, 4, size=(3, k + 20), dtype=np.uint8)
        minis = minimizers_for_reads(codes, k, p)
        for i in range(3):
            for j in range(codes.shape[1] - k + 1):
                assert int(minis[i, j]) == minimizer_of_kmer_ref(
                    codes[i, j : j + k], p
                )


#: Key-width edges where packing tricks overflow: the top of one-word
#: keys and both ends of two-word keys.
KEY_WIDTH_EDGES = (29, 30, 31, 33, 61, 63)


class TestGraphProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    @settings(max_examples=15, deadline=None)
    def test_fast_builder_matches_slow(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        length = int(rng.integers(k, k + 25))
        batch = ReadBatch(codes=rng.integers(0, 4, size=(n, length), dtype=np.uint8))
        fast = build_reference_graph(batch, k)
        slow = build_reference_graph_slow(batch, k)
        assert_graphs_equal(fast, slow)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_full_graph_invariants(self, seed):
        rng = np.random.default_rng(seed)
        batch = ReadBatch(codes=rng.integers(0, 4, size=(20, 30), dtype=np.uint8))
        k = 9
        g = build_reference_graph(batch, k)
        validate_full_graph(g, batch)

    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.integers(5, 13), st.sampled_from(KEY_WIDTH_EDGES)))
    @settings(max_examples=20, deadline=None)
    def test_parahash_equals_reference(self, seed, k):
        """ParaHash matches the pure-Python oracle of its key width, for
        small k and at the edges of both widths."""
        from repro.bigk.store import build_reference_bigk_slow
        from repro.core.parahash import build_debruijn_graph

        rng = np.random.default_rng(seed)
        if k < 14:
            batch = ReadBatch(codes=rng.integers(0, 4, size=(25, 40), dtype=np.uint8))
            p = int(rng.integers(1, k + 1))
        else:
            n = int(rng.integers(2, 10))
            length = k + int(rng.integers(2, 25))
            batch = ReadBatch(codes=rng.integers(0, 4, size=(n, length),
                                                 dtype=np.uint8))
            p = int(rng.integers(5, 22))
        n_partitions = int(rng.integers(1, 12))
        got = build_debruijn_graph(batch, k=k, p=p, n_partitions=n_partitions)
        context = f"k={k},p={p},np={n_partitions}"
        if k <= 31:
            assert_graphs_equal(got, build_reference_graph(batch, k), context)
        else:
            assert got.equals(build_reference_bigk_slow(batch, k)), context


class TestHashTableProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_table_equals_sort_merge(self, seed):
        from repro.core.hashtable import ConcurrentHashTable
        from repro.graph.dbg import graph_from_pairs

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        kmers = rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
        slots = rng.integers(0, 9, size=n).astype(np.int64)
        table = ConcurrentHashTable(2048, k=10)
        table.insert_batch(kmers, slots)
        assert table.to_graph().equals(graph_from_pairs(10, kmers, slots))
