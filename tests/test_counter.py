"""Tests for repro.core.counter (kmer counting mode)."""

import numpy as np
import pytest

from repro.core.counter import (
    KmerCountTable,
    abundance_filter_reads,
    count_kmers,
    count_kmers_partitioned,
)
from repro.dna.kmer import canonical_int, revcomp_int
from repro.dna.reads import ReadBatch
from repro.graph.build import build_reference_graph
from repro.graph.dbg import MULT_SLOT


class TestCountKmers:
    def test_matches_graph_multiplicities(self, genomic_batch):
        k = 15
        table = count_kmers(genomic_batch, k)
        graph = build_reference_graph(genomic_batch, k)
        assert table.n_distinct == graph.n_vertices
        assert np.array_equal(table.kmers, graph.planes[0])
        assert np.array_equal(table.counts, graph.counts[:, MULT_SLOT])

    def test_total_instances(self, genomic_batch):
        table = count_kmers(genomic_batch, 15)
        assert table.total_instances() == genomic_batch.n_kmers(15)

    def test_count_query_canonicalizes(self):
        batch = ReadBatch.from_strs(["AACGT", "AACGT"])
        table = count_kmers(batch, 5)
        kmer = 0b00_00_01_10_11  # AACGT
        assert table.count(kmer) == 2
        assert table.count(revcomp_int(kmer, 5)) == 2  # ACGTT
        assert kmer in table

    def test_missing_kmer(self, genomic_batch):
        table = count_kmers(genomic_batch, 15)
        absent = next(
            v for v in range(100)
            if canonical_int(v, 15) == v and table.count(v) == 0
        )
        assert absent not in table

    def test_partitioned_equals_direct(self, genomic_batch):
        direct = count_kmers(genomic_batch, 15)
        part = count_kmers_partitioned(genomic_batch, 15, p=7, n_partitions=8)
        assert np.array_equal(direct.kmers, part.kmers)
        assert np.array_equal(direct.counts, part.counts)

    def test_filter_min_count(self, genomic_batch):
        table = count_kmers(genomic_batch, 15)
        solid = table.filter_min_count(2)
        assert solid.n_distinct < table.n_distinct
        assert (solid.counts >= 2).all()

    def test_histogram(self, genomic_batch):
        table = count_kmers(genomic_batch, 15)
        hist = table.histogram()
        assert hist.sum() == table.n_distinct
        assert hist[0] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            KmerCountTable(k=5, kmers=np.zeros(2, dtype=np.uint64),
                           counts=np.zeros(3, dtype=np.uint64))


class TestAbundanceFilter:
    def test_clean_reads_pass(self, clean_batch):
        table = count_kmers(clean_batch, 15)
        mask = abundance_filter_reads(table, clean_batch, min_count=1)
        assert mask.all()  # every kmer of every read is in the table

    def test_error_reads_fail_strict_threshold(self, tiny_profile):
        genome, reads = tiny_profile.generate()
        table = count_kmers(reads, 15)
        mask = abundance_filter_reads(table, reads, min_count=2)
        # Reads containing a unique (error) kmer are rejected.
        assert 0 < mask.sum() < reads.n_reads

    def test_empty_table(self, clean_batch):
        empty = KmerCountTable(k=15, kmers=np.zeros(0, dtype=np.uint64),
                               counts=np.zeros(0, dtype=np.uint64))
        mask = abundance_filter_reads(empty, clean_batch, min_count=1)
        assert not mask.any()
