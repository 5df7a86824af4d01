"""Tests for repro.graph.validate (invariants catch real corruption)."""

import numpy as np
import pytest

from repro.graph.build import build_reference_graph
from repro.graph.dbg import MULT_SLOT, OUT_BASE, DeBruijnGraph
from repro.graph.validate import (
    GraphValidationError,
    assert_graphs_equal,
    check_canonical_vertices,
    check_edge_symmetry,
    check_edge_weight_conservation,
    check_genome_coverage,
    check_multiplicity_conservation,
    validate_full_graph,
)


class TestAssertGraphsEqual:
    def test_equal_graphs_pass(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(g, g)

    def test_k_mismatch(self, genomic_batch):
        g15 = build_reference_graph(genomic_batch, 15)
        g13 = build_reference_graph(genomic_batch, 13)
        with pytest.raises(GraphValidationError, match="k differs"):
            assert_graphs_equal(g15, g13)

    def test_vertex_count_mismatch_lists_examples(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        smaller = DeBruijnGraph(15, (g.planes[0][1:],), g.counts[1:])
        with pytest.raises(GraphValidationError, match="missing"):
            assert_graphs_equal(smaller, g, "test")

    def test_counter_mismatch_reported(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        tampered = DeBruijnGraph(15, (g.planes[0].copy(),), g.counts.copy())
        tampered.counts[3, MULT_SLOT] += 1
        with pytest.raises(GraphValidationError, match="counters differ"):
            assert_graphs_equal(tampered, g)


class TestInvariants:
    def test_full_graph_passes_all(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        validate_full_graph(g, genomic_batch)

    def test_noncanonical_vertex_detected(self):
        # Vertex 0b111111... (all T) is not canonical (AAAA.. is smaller).
        g = DeBruijnGraph(
            5,
            (np.array([(1 << 10) - 1], dtype=np.uint64),),
            np.ones((1, 9), dtype=np.uint64),
        )
        with pytest.raises(GraphValidationError, match="not canonical"):
            check_canonical_vertices(g)

    def test_multiplicity_conservation_detects_loss(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        tampered = DeBruijnGraph(15, (g.planes[0].copy(),), g.counts.copy())
        tampered.counts[0, MULT_SLOT] += 5
        with pytest.raises(GraphValidationError, match="multiplicity"):
            check_multiplicity_conservation(tampered, genomic_batch)

    def test_edge_weight_conservation_detects_loss(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        tampered = DeBruijnGraph(15, (g.planes[0].copy(),), g.counts.copy())
        # Find a vertex with a non-zero out edge and drop one unit.
        rows = np.nonzero(tampered.counts[:, OUT_BASE] > 0)[0]
        tampered.counts[rows[0], OUT_BASE] -= 1
        with pytest.raises(GraphValidationError, match="edge weight"):
            check_edge_weight_conservation(tampered, genomic_batch)

    def test_edge_symmetry_detects_asymmetry(self, clean_batch):
        g = build_reference_graph(clean_batch, 15)
        tampered = DeBruijnGraph(15, (g.planes[0].copy(),), g.counts.copy())
        rows = np.nonzero(tampered.counts[:, OUT_BASE] > 0)[0]
        tampered.counts[rows[0], OUT_BASE] += 1
        with pytest.raises(GraphValidationError, match="asymmetric|absent"):
            check_edge_symmetry(tampered)

    def test_genome_coverage_error_free(self, tiny_profile):
        from dataclasses import replace

        clean_profile = replace(tiny_profile, mean_errors=0.0, coverage=25.0)
        genome, reads = clean_profile.generate()
        g = build_reference_graph(reads, 15)
        missing = check_genome_coverage(g, genome)
        # 25x coverage: essentially every genome kmer is present.
        assert missing <= 0.01 * clean_profile.genome_size
