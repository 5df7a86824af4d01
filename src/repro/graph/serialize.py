"""De Bruijn graph serialization.

Step 2's third pipeline stage "parses each output partition to the
required format and transfers it to the disk" (§III-E); the constructed
subgraphs become disk files (the paper's Bumblebee output is ~20 GB).
Two formats:

* **binary** (``.phdbg``): header + the raw key-plane/counter arrays.
  Compact, exact, fast; the format partition outputs use.  The header
  records k, and k fixes the number W of key planes, so one layout
  serves every key width.
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
from .dbg import N_SLOTS, DeBruijnGraph, plane_order, planes_from_ints

MAGIC = b"PHDB"
#: Magic of the former two-word files; their layout is the PHDB layout
#: at W = 2, so :func:`load_graph` reads them too.
LEGACY_MAGIC_2W = b"PHB2"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")


class GraphFormatError(ValueError):
    """Raised on a malformed graph file."""


def save_graph(path: str | os.PathLike, graph: DeBruijnGraph) -> int:
    """Write a graph as a binary ``.phdbg`` file; returns bytes written.

    Layout: header (magic, version, k, reserved, n), the W key planes
    most significant first, then the ``(n, 9)`` counters, all as
    little-endian uint64.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, graph.k, 0, graph.n_vertices))
        for plane in graph.planes:
            fh.write(np.ascontiguousarray(plane, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(graph.counts, dtype="<u8").tobytes())
    return os.path.getsize(path)


def load_graph(path: str | os.PathLike) -> DeBruijnGraph:
    """Read a binary graph file (PHDB, or a legacy PHB2) back."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GraphFormatError(f"{path}: truncated header")
    magic, version, k, _reserved, n = _HEADER.unpack_from(raw, 0)
    if magic not in (MAGIC, LEGACY_MAGIC_2W):
        raise GraphFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise GraphFormatError(f"{path}: unsupported version {version}")
    try:
        width = key_planes(k)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    need = _HEADER.size + n * 8 * width + n * N_SLOTS * 8
    if len(raw) != need:
        raise GraphFormatError(
            f"{path}: expected {need} bytes for {n} vertices, got {len(raw)}"
        )
    words = np.frombuffer(raw, dtype="<u8", offset=_HEADER.size).copy()
    planes = tuple(words[i * n:(i + 1) * n] for i in range(width))
    counts = words[width * n:].reshape(n, N_SLOTS)
    return DeBruijnGraph(k, planes, counts)


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
        key_planes(k)
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
    planes = planes_from_ints(vertices, k)
    order = plane_order(planes)
    counts_arr = (
        np.array(counts, dtype=np.uint64)[order]
        if counts
        else np.zeros((0, N_SLOTS), dtype=np.uint64)
    )
    return DeBruijnGraph(k, tuple(p[order] for p in planes), counts_arr)


def save_subgraphs(out_dir: str | os.PathLike, subgraphs: list) -> list[Path]:
    """Write one binary file per subgraph (the Step 2 output stage).

    Files are ``subgraph_NNNN.phdbg`` (:func:`save_graph`).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, graph in enumerate(subgraphs):
        path = out / f"subgraph_{i:04d}.phdbg"
        save_graph(path, graph)
        paths.append(path)
    return paths


def load_subgraphs(paths: list[Path] | list[str]) -> list[DeBruijnGraph]:
    """Read subgraph files back (e.g. to merge them)."""
    return [load_graph(p) for p in paths]
