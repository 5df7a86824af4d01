"""Binary files for two-word (K > 31) graphs.

Same layout philosophy as :mod:`repro.graph.serialize` with a distinct
magic (``PHB2``): header, then the hi plane, the lo plane, and the
counter matrix as little-endian uint64 arrays.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..graph.dbg import N_SLOTS
from ..graph.serialize import GraphFormatError
from .store import BigDeBruijnGraph

MAGIC_2W = b"PHB2"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBHQ")


def save_big_graph(path: str | os.PathLike, graph: BigDeBruijnGraph) -> int:
    """Write a big-K graph; returns bytes written."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_2W, FORMAT_VERSION, graph.k, 0,
                              graph.n_vertices))
        fh.write(np.ascontiguousarray(graph.vertices_hi, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(graph.vertices_lo, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(graph.counts, dtype="<u8").tobytes())
    return os.path.getsize(path)


def load_big_graph(path: str | os.PathLike) -> BigDeBruijnGraph:
    """Read a big-K graph file back."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GraphFormatError(f"{path}: truncated header")
    magic, version, k, _reserved, n = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC_2W:
        raise GraphFormatError(f"{path}: bad magic {magic!r} (expected PHB2)")
    if version != FORMAT_VERSION:
        raise GraphFormatError(f"{path}: unsupported version {version}")
    need = _HEADER.size + n * 8 * 2 + n * N_SLOTS * 8
    if len(raw) != need:
        raise GraphFormatError(
            f"{path}: expected {need} bytes for {n} vertices, got {len(raw)}"
        )
    pos = _HEADER.size
    hi = np.frombuffer(raw, dtype="<u8", count=n, offset=pos).copy()
    pos += n * 8
    lo = np.frombuffer(raw, dtype="<u8", count=n, offset=pos).copy()
    pos += n * 8
    counts = (
        np.frombuffer(raw, dtype="<u8", count=n * N_SLOTS, offset=pos)
        .reshape(n, N_SLOTS)
        .copy()
    )
    return BigDeBruijnGraph(k=k, vertices_hi=hi, vertices_lo=lo, counts=counts)


def detect_graph_format(path: str | os.PathLike) -> str:
    """Return ``"1w"`` / ``"2w"`` by a file's magic, or raise."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"PHDB":
        return "1w"
    if magic == MAGIC_2W:
        return "2w"
    raise GraphFormatError(f"{path}: unrecognized magic {magic!r}")
