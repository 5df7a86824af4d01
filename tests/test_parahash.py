"""Tests for repro.core.parahash (end-to-end driver) and config."""

import pytest

from repro.core.config import BIG_GENOME_CONFIG, MEDIUM_GENOME_CONFIG, ParaHashConfig
from repro.core.parahash import ParaHash, build_debruijn_graph
from repro.graph.build import build_reference_graph
from repro.graph.merge import merge_disjoint
from repro.graph.serialize import load_subgraphs
from repro.graph.validate import assert_graphs_equal, validate_full_graph


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ParaHashConfig()
        assert cfg.k == 27
        assert cfg.p == 11
        assert cfg.sizing.lam == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParaHashConfig(k=0)
        with pytest.raises(ValueError):
            ParaHashConfig(k=64)  # two words hold at most 63 bases
        with pytest.raises(ValueError, match="33..63"):
            ParaHashConfig(k=32)  # neither key width
        with pytest.raises(ValueError):
            ParaHashConfig(k=45, p=32)  # minimizers stay one-word
        with pytest.raises(ValueError):
            ParaHashConfig(k=11, p=12)
        with pytest.raises(ValueError):
            ParaHashConfig(n_partitions=0)
        with pytest.raises(ValueError):
            ParaHashConfig(n_input_pieces=0)

    def test_with_(self):
        cfg = ParaHashConfig().with_(p=13, n_partitions=64)
        assert cfg.p == 13 and cfg.n_partitions == 64
        assert cfg.k == 27

    def test_presets(self):
        assert MEDIUM_GENOME_CONFIG.p == 11
        assert BIG_GENOME_CONFIG.p == 19


class TestEndToEnd:
    def test_in_memory_equals_reference(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=8, n_input_pieces=3)
        result = ParaHash(cfg).build_graph(genomic_batch)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "in-memory")
        validate_full_graph(result.graph, genomic_batch)

    def test_disk_backed_equals_reference(self, genomic_batch, tmp_path):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=4, n_input_pieces=2)
        result = ParaHash(cfg).build_graph(genomic_batch, workdir=tmp_path)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "disk-backed")
        assert result.partition_bytes > 0
        assert result.timings.io_seconds >= 0

    def test_coprocessed_equals_reference(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=8, backend="threads",
                             n_workers=3)
        result = ParaHash(cfg).build_graph(genomic_batch)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "coprocessed")
        assert len(result.worker_records) == 3
        total = sum(len(r.partitions) for r in result.worker_records.values())
        assert total == len(result.subgraphs)

    def test_result_accounting(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=4)
        result = ParaHash(cfg).build_graph(genomic_batch)
        assert result.n_kmers == genomic_batch.n_kmers(15)
        assert result.hash_stats.ops > result.n_kmers  # edges add observations
        assert 0 < result.hash_stats.lock_reduction < 1
        d = result.describe()
        assert d["n_vertices"] == result.graph.n_vertices

    def test_partition_count_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for n_partitions in (1, 3, 16):
            got = build_debruijn_graph(genomic_batch, k=15, p=7,
                                       n_partitions=n_partitions)
            assert_graphs_equal(got, ref, f"np={n_partitions}")

    def test_minimizer_length_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for p in (3, 7, 15):
            got = build_debruijn_graph(genomic_batch, k=15, p=p, n_partitions=8)
            assert_graphs_equal(got, ref, f"p={p}")

    def test_input_piece_count_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for pieces in (1, 5):
            cfg = ParaHashConfig(k=15, p=7, n_partitions=4, n_input_pieces=pieces)
            result = ParaHash(cfg).build_graph(genomic_batch)
            assert_graphs_equal(result.graph, ref, f"pieces={pieces}")

    def test_duplicate_merge_claim(self, genomic_batch):
        # Table I style accounting: distinct + duplicates = all kmers.
        result = ParaHash(ParaHashConfig(k=15, p=7, n_partitions=4)).build_graph(
            genomic_batch
        )
        g = result.graph
        assert g.n_vertices + g.n_duplicate_vertices() == genomic_batch.n_kmers(15)

    def test_output_dir_writes_subgraph_files(self, genomic_batch, tmp_path):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=6)
        result = ParaHash(cfg).build_graph(genomic_batch,
                                           output_dir=tmp_path / "out")
        files = sorted((tmp_path / "out").glob("subgraph_*.phdbg"))
        assert len(files) == len(result.subgraphs)
        merged = merge_disjoint(load_subgraphs(files))
        assert_graphs_equal(merged, result.graph, "output-dir")

    def test_build_from_files(self, genomic_batch, tmp_path):
        # Shard the reads across three fastq files; streaming
        # construction must equal the in-memory build, at both key
        # widths, and write subgraph files that merge back to the graph.
        from repro.dna.io import save_read_batch

        shards = []
        for i, piece in enumerate(genomic_batch.split(3)):
            path = tmp_path / f"shard_{i}.fastq"
            save_read_batch(path, piece)
            shards.append(path)
        for k, p in ((15, 7), (45, 15)):
            cfg = ParaHashConfig(k=k, p=p, n_partitions=4)
            out = tmp_path / f"out{k}"
            result = ParaHash(cfg).build_graph_from_files(
                shards, workdir=tmp_path / f"work{k}", output_dir=out
            )
            in_memory = ParaHash(cfg).build_graph(genomic_batch).graph
            assert result.graph.equals(in_memory), k
            if k <= 31:
                ref = build_reference_graph(genomic_batch, k)
                assert_graphs_equal(result.graph, ref, "from-files")
            assert result.n_kmers == genomic_batch.n_kmers(k)
            files = sorted(out.glob("subgraph_*.phdbg"))
            assert len(files) == len(result.subgraphs)
            loaded = merge_disjoint(load_subgraphs(files), k=k)
            assert loaded.equals(result.graph), k

    def test_build_from_files_threads_backend(self, genomic_batch, tmp_path):
        # Regression: the file build used to run Step 2 on one thread
        # whatever the backend, reporting no worker records.
        from repro.dna.io import save_read_batch

        shards = []
        for i, piece in enumerate(genomic_batch.split(2)):
            path = tmp_path / f"shard_{i}.fastq"
            save_read_batch(path, piece)
            shards.append(path)
        cfg = ParaHashConfig(k=21, p=9, n_partitions=8, backend="threads",
                             n_workers=3)
        result = ParaHash(cfg).build_graph_from_files(
            shards, workdir=tmp_path / "work"
        )
        ref = build_reference_graph(genomic_batch, 21)
        assert_graphs_equal(result.graph, ref, "threads-from-files")
        assert sorted(result.worker_records) == ["cpu0", "cpu1", "cpu2"]

    def test_build_from_files_requires_input(self, tmp_path):
        with pytest.raises(ValueError):
            ParaHash(ParaHashConfig(k=15, p=7)).build_graph_from_files(
                [], workdir=tmp_path
            )

    def test_subgraphs_are_disjoint(self, genomic_batch):
        import numpy as np

        result = ParaHash(ParaHashConfig(k=15, p=7, n_partitions=8)).build_graph(
            genomic_batch
        )
        all_vertices = np.concatenate([g.planes[0] for g in result.subgraphs])
        assert np.unique(all_vertices).size == all_vertices.size
