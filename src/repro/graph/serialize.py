"""De Bruijn graph serialization.

Step 2's third pipeline stage "parses each output partition to the
required format and transfers it to the disk" (§III-E); the constructed
subgraphs become disk files (the paper's Bumblebee output is ~20 GB).
Two formats:

* **binary** (``.phdbg``): header + the raw vertex/counter arrays.
  Compact, exact, fast; the format partition outputs use.
* **TSV text**: one vertex per line with its spelled kmer, multiplicity
  and the 8 edge counters — for interoperability and eyeballing.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..dna.alphabet import encode
from ..dna.encoding import codes_to_int
from ..dna.kmer import key_planes
from .dbg import N_SLOTS, DeBruijnGraph

MAGIC = b"PHDB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")


class GraphFormatError(ValueError):
    """Raised on a malformed graph file."""


def save_graph(path: str | os.PathLike, graph: DeBruijnGraph) -> int:
    """Write a graph as a binary ``.phdbg`` file; returns bytes written."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, graph.k, 0, graph.n_vertices))
        fh.write(np.ascontiguousarray(graph.vertices, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(graph.counts, dtype="<u8").tobytes())
    return os.path.getsize(path)


def load_graph(path: str | os.PathLike) -> DeBruijnGraph:
    """Read a binary graph file back."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GraphFormatError(f"{path}: truncated header")
    magic, version, k, _reserved, n = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise GraphFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise GraphFormatError(f"{path}: unsupported version {version}")
    need = _HEADER.size + n * 8 + n * N_SLOTS * 8
    if len(raw) != need:
        raise GraphFormatError(
            f"{path}: expected {need} bytes for {n} vertices, got {len(raw)}"
        )
    pos = _HEADER.size
    vertices = np.frombuffer(raw, dtype="<u8", count=n, offset=pos).copy()
    pos += n * 8
    counts = (
        np.frombuffer(raw, dtype="<u8", count=n * N_SLOTS, offset=pos)
        .reshape(n, N_SLOTS)
        .copy()
    )
    return DeBruijnGraph(k=k, vertices=vertices, counts=counts)


TSV_HEADER = "kmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT"


def export_tsv(path: str | os.PathLike, graph: DeBruijnGraph) -> int:
    """Write the adjacency lists as TSV; returns the number of rows."""
    with open(path, "wt", encoding="ascii") as fh:
        fh.write(f"# k={graph.k}\n")
        fh.write(TSV_HEADER + "\n")
        for i in range(graph.n_vertices):
            row = graph.counts[i]
            out_in = "\t".join(str(int(row[j])) for j in range(8))
            fh.write(f"{graph.vertex_str(i)}\t{int(row[8])}\t{out_in}\n")
    return graph.n_vertices


def import_tsv(path: str | os.PathLike) -> DeBruijnGraph:
    """Read a TSV export back into a graph."""
    with open(path, "rt", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("# k="):
        raise GraphFormatError(f"{path}: missing '# k=' header line")
    try:
        k = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: bad k header") from exc
    if len(lines) < 2 or lines[1] != TSV_HEADER:
        raise GraphFormatError(f"{path}: missing column header")
    vertices = []
    counts = []
    for lineno, line in enumerate(lines[2:], 3):
        fields = line.split("\t")
        if len(fields) != 10:
            raise GraphFormatError(f"{path}:{lineno}: expected 10 fields")
        kmer_str, mult, *edges = fields
        if len(kmer_str) != k:
            raise GraphFormatError(
                f"{path}:{lineno}: kmer length {len(kmer_str)} != k={k}"
            )
        vertices.append(codes_to_int(encode(kmer_str)))
        counts.append([int(v) for v in edges] + [int(mult)])
    order = np.argsort(np.array(vertices, dtype=np.uint64))
    vertices_arr = np.array(vertices, dtype=np.uint64)[order]
    counts_arr = (
        np.array(counts, dtype=np.uint64)[order]
        if counts
        else np.zeros((0, N_SLOTS), dtype=np.uint64)
    )
    return DeBruijnGraph(k=k, vertices=vertices_arr, counts=counts_arr)


def save_any_graph(path: str | os.PathLike, graph) -> int:
    """Write a graph in the binary format of its key width.

    ``.phdbg`` (PHDB) for one-word keys, PHB2
    (:func:`repro.bigk.serialize.save_big_graph`) for two-word keys;
    returns bytes written.
    """
    if key_planes(graph.k) > 1:
        from ..bigk.serialize import save_big_graph

        return save_big_graph(path, graph)
    return save_graph(path, graph)


def load_any_graph(path: str | os.PathLike):
    """Read a graph file of either key width, picked by its magic."""
    from ..bigk.serialize import detect_graph_format, load_big_graph

    if detect_graph_format(path) == "2w":
        return load_big_graph(path)
    return load_graph(path)


def save_subgraphs(out_dir: str | os.PathLike, subgraphs: list) -> list[Path]:
    """Write one binary file per subgraph (the Step 2 output stage).

    Files are ``subgraph_NNNN.phdbg`` in the format of the graphs' key
    width (:func:`save_any_graph`).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, graph in enumerate(subgraphs):
        path = out / f"subgraph_{i:04d}.phdbg"
        save_any_graph(path, graph)
        paths.append(path)
    return paths


def load_subgraphs(paths: list[Path] | list[str]) -> list:
    """Read subgraph files of either key width back (e.g. to merge them)."""
    return [load_any_graph(p) for p in paths]
