"""Tests for repro.graph.build and repro.graph.merge."""

import numpy as np
import pytest

from repro.dna.reads import ReadBatch
from repro.graph.build import (
    build_reference_graph,
    build_reference_graph_slow,
    edge_observations,
)
from repro.graph.dbg import MULT_SLOT, DeBruijnGraph, empty_graph, graph_from_pairs
from repro.graph.merge import OverlapError, merge_adding, merge_disjoint
from repro.graph.validate import assert_graphs_equal


class TestReferenceBuilders:
    def test_fast_equals_slow(self, rng):
        codes = rng.integers(0, 4, size=(25, 40), dtype=np.uint8)
        batch = ReadBatch(codes=codes)
        for k in (3, 11, 20):
            fast = build_reference_graph(batch, k)
            slow = build_reference_graph_slow(batch, k)
            assert_graphs_equal(fast, slow, f"k={k}")

    def test_fig1_example(self):
        # Fig 1 of the paper: TGATG has successors GATGG (weight 2) and
        # GATGA (weight 1) given three reads containing those overlaps.
        reads = ReadBatch.from_strs(["TGATGG", "TGATGG", "TGATGA"])
        g = build_reference_graph(reads, 5)
        from repro.dna import alphabet as al
        from repro.dna.encoding import codes_to_int
        from repro.dna.kmer import canonical_int

        tgatg = canonical_int(codes_to_int(al.encode("TGATG")), 5)
        succ = dict(g.successors(tgatg) + g.predecessors(tgatg))
        gatgg = canonical_int(codes_to_int(al.encode("GATGG")), 5)
        gatga = canonical_int(codes_to_int(al.encode("GATGA")), 5)
        assert succ[gatgg] == 2
        assert succ[gatga] == 1

    def test_empty_batch(self):
        g = build_reference_graph(ReadBatch(codes=np.zeros((0, 0), dtype=np.uint8)), 5)
        assert g.n_vertices == 0

    def test_single_kmer_reads(self):
        batch = ReadBatch.from_strs(["ACGTA", "ACGTA"])
        g = build_reference_graph(batch, 5)
        assert g.n_vertices == 1
        assert g.total_kmer_instances() == 2
        assert g.total_edge_weight() == 0

    def test_strand_symmetry(self, rng):
        # A batch and its reverse-complemented batch build one graph.
        codes = rng.integers(0, 4, size=(20, 30), dtype=np.uint8)
        rc = (codes[:, ::-1] ^ 3).astype(np.uint8)
        g1 = build_reference_graph(ReadBatch(codes=codes), 9)
        g2 = build_reference_graph(ReadBatch(codes=rc), 9)
        assert_graphs_equal(g1, g2, "strand-symmetry")

    def test_edge_observations_sizes(self, small_batch):
        v, s = edge_observations(small_batch.codes, 11)
        n_kmers = small_batch.n_kmers(11)
        pairs = small_batch.n_reads * (small_batch.read_length - 11)
        assert v.size == n_kmers + 2 * pairs
        assert int((s == MULT_SLOT).sum()) == n_kmers


class TestMergeDisjoint:
    def split_graph(self, g, parts=3):
        bounds = np.linspace(0, g.n_vertices, parts + 1).astype(int)
        return [
            DeBruijnGraph(g.k, tuple(p[a:b] for p in g.planes), g.counts[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]

    def test_roundtrip(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        parts = self.split_graph(g, 4)
        assert_graphs_equal(merge_disjoint(parts), g, "merge-roundtrip")

    def test_order_invariance(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        parts = self.split_graph(g, 3)
        assert_graphs_equal(merge_disjoint(parts[::-1]), g, "merge-reversed")

    def test_overlap_detected(self, genomic_batch):
        from repro.core.parahash import build_debruijn_graph

        g15 = build_reference_graph(genomic_batch, 15)
        g45 = build_debruijn_graph(genomic_batch, 45, p=13, n_partitions=2)
        for g in (g15, g45):
            with pytest.raises(OverlapError):
                merge_disjoint([g, g])
            # One shared vertex is enough, at either key width.
            head = self.split_graph(g, 2)[0]
            with pytest.raises(OverlapError):
                merge_disjoint([g, DeBruijnGraph(
                    g.k, tuple(p[:1] for p in head.planes), head.counts[:1])])

    def test_empty_inputs_skipped(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        merged = merge_disjoint([g, empty_graph(15)])
        assert_graphs_equal(merged, g, "merge-with-empty")

    def test_mixed_k_rejected(self, genomic_batch):
        g15 = build_reference_graph(genomic_batch, 15)
        g13 = build_reference_graph(genomic_batch, 13)
        with pytest.raises(ValueError):
            merge_disjoint([g15, g13])
        with pytest.raises(ValueError):
            merge_disjoint([g15], k=13)

    def test_all_empty_merge_keeps_k(self):
        # k comes from the inputs, empty ones included, or from k=.
        assert merge_disjoint([empty_graph(15)]).k == 15
        assert merge_disjoint([empty_graph(45), empty_graph(45)]).k == 45
        merged = merge_disjoint([], k=45)
        assert merged.k == 45 and merged.n_vertices == 0
        assert len(merged.planes) == 2
        with pytest.raises(ValueError):
            merge_disjoint([])


class TestMergeAdding:
    def test_double_merge_doubles_counts(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        doubled = merge_adding([g, g])
        assert doubled.n_vertices == g.n_vertices
        assert np.array_equal(doubled.counts, g.counts * 2)

    def test_split_batches_merge_to_whole(self, genomic_batch):
        # Building per piece and count-merging equals one-shot building:
        # within-read adjacency only, so splitting by reads is lossless.
        g = build_reference_graph(genomic_batch, 15)
        pieces = genomic_batch.split(3)
        parts = [build_reference_graph(p, 15) for p in pieces]
        assert_graphs_equal(merge_adding(parts), g, "piecewise")

    def test_empty(self):
        assert merge_adding([], k=15).n_vertices == 0
        assert merge_adding([empty_graph(45)]).k == 45


class TestGraphFromPairsConsistency:
    def test_matches_reference(self, small_batch):
        v, s = edge_observations(small_batch.codes, 11)
        g = graph_from_pairs(11, v, s)
        ref = build_reference_graph(small_batch, 11)
        assert_graphs_equal(g, ref, "pairs-vs-ref")
