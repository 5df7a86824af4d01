"""Tests for repro.graph.serialize (binary and TSV graph files)."""

import struct

import pytest

from repro.core.parahash import build_debruijn_graph

from repro.graph.build import build_reference_graph
from repro.graph.merge import merge_disjoint
from repro.graph.serialize import (
    GraphFormatError,
    export_tsv,
    import_tsv,
    load_graph,
    load_subgraphs,
    save_graph,
    save_subgraphs,
)
from repro.graph.validate import assert_graphs_equal


class TestBinaryFormat:
    def test_roundtrip(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        n_bytes = save_graph(path, g)
        assert n_bytes == path.stat().st_size
        back = load_graph(path)
        assert_graphs_equal(back, g, "binary-roundtrip")

    def test_empty_graph(self, tmp_path):
        from repro.graph.dbg import empty_graph

        path = tmp_path / "e.phdbg"
        save_graph(path, empty_graph(27))
        back = load_graph(path)
        assert back.n_vertices == 0 and back.k == 27

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.phdbg"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_truncated(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_trailing_bytes(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_bad_version(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        data = bytearray(path.read_bytes())
        data[4] = 42
        path.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError):
            load_graph(path)


class TestTsvFormat:
    def test_roundtrip(self, clean_batch, tmp_path):
        g = build_reference_graph(clean_batch, 15)
        path = tmp_path / "g.tsv"
        rows = export_tsv(path, g)
        assert rows == g.n_vertices
        back = import_tsv(path)
        assert_graphs_equal(back, g, "tsv-roundtrip")

    @pytest.mark.parametrize("k", [31, 33, 63])
    def test_roundtrip_at_key_width_edges(self, clean_batch, tmp_path, k):
        g = build_debruijn_graph(clean_batch, k, p=13, n_partitions=4)
        path = tmp_path / "g.tsv"
        assert export_tsv(path, g) == g.n_vertices
        back = import_tsv(path)
        assert len(back.planes) == len(g.planes)
        assert back.equals(g)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("no header\n")
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# k=3\nkmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT\nACG\t1\n")
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    def test_kmer_length_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        row = "ACGT\t1" + "\t0" * 8
        path.write_text(
            "# k=3\nkmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT\n"
            + row + "\n"
        )
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    def test_human_readable(self, tmp_path):
        from repro.dna.reads import ReadBatch

        g = build_reference_graph(ReadBatch.from_strs(["AACCT"]), 3)
        path = tmp_path / "g.tsv"
        export_tsv(path, g)
        text = path.read_text()
        assert "# k=3" in text
        assert "AAC" in text  # spelled kmer appears


class TestSubgraphFiles:
    def test_save_load_merge(self, genomic_batch, tmp_path):
        from repro.core.config import ParaHashConfig
        from repro.core.parahash import ParaHash

        cfg = ParaHashConfig(k=15, p=7, n_partitions=6)
        result = ParaHash(cfg).build_graph(genomic_batch)
        paths = save_subgraphs(tmp_path / "subs", result.subgraphs)
        assert len(paths) == len(result.subgraphs)
        loaded = load_subgraphs(paths)
        merged = merge_disjoint(loaded)
        assert_graphs_equal(merged, result.graph, "subgraph-files")

    def test_file_sizes_sum_to_graph(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        # 16-byte header + 8 bytes/vertex + 72 bytes of counters/vertex.
        assert path.stat().st_size == 16 + g.n_vertices * 80


def _legacy_phb2_bytes(g) -> bytes:
    """A two-word graph in the former PHB2 layout, written field by field."""
    hi, lo = g.planes
    return (struct.pack("<4sBBHQ", b"PHB2", 1, g.k, 0, g.n_vertices)
            + hi.astype("<u8").tobytes() + lo.astype("<u8").tobytes()
            + g.counts.astype("<u8").tobytes())


class TestLegacyAndLayout:
    def test_phb2_file_loads(self, genomic_batch, tmp_path):
        g = build_debruijn_graph(genomic_batch, 41, p=13, n_partitions=4)
        path = tmp_path / "old.phdbg"
        path.write_bytes(_legacy_phb2_bytes(g))
        back = load_graph(path)
        assert back.k == 41 and len(back.planes) == 2
        assert back.equals(g)
        # Re-saving writes the one format: same layout, PHDB magic.
        save_graph(path, back)
        assert path.read_bytes() == b"PHDB" + _legacy_phb2_bytes(g)[4:]

    def test_phb2_subgraph_files_merge(self, genomic_batch, tmp_path):
        # A service job interrupted before the format change left PHB2
        # subgraph files; resuming merges them into a PHDB graph.
        from repro.core.config import ParaHashConfig
        from repro.core.parahash import ParaHash
        from repro.service.runner import _merge_and_save

        result = ParaHash(ParaHashConfig(k=45, p=13, n_partitions=4)
                          ).build_graph(genomic_batch)
        paths = []
        for i, sub in enumerate(result.subgraphs):
            paths.append(tmp_path / f"subgraph_{i:04d}.phdbg")
            paths[-1].write_bytes(_legacy_phb2_bytes(sub))
        merged = merge_disjoint(load_subgraphs(paths), k=45)
        assert merged.equals(result.graph)
        out = tmp_path / "graph.phdbg"
        _merge_and_save(paths, 45, out)
        assert out.read_bytes()[:4] == b"PHDB"
        assert load_graph(out).equals(result.graph)

    def test_one_plane_bytes_unchanged(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 27)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        (vertices,) = g.planes
        assert path.read_bytes() == (
            struct.pack("<4sBBHQ", b"PHDB", 1, 27, 0, g.n_vertices)
            + vertices.astype("<u8").tobytes()
            + g.counts.astype("<u8").tobytes()
        )

    @pytest.mark.parametrize("k", [0, 32, 64])
    def test_header_k_without_key_width_rejected(self, tmp_path, k):
        path = tmp_path / "g.phdbg"
        path.write_bytes(struct.pack("<4sBBHQ", b"PHDB", 1, k, 0, 0))
        with pytest.raises(GraphFormatError):
            load_graph(path)
