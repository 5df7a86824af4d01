"""Shared-memory segments for the process backend.

The process backend (:mod:`repro.parallel.backend`) moves the big
arrays of a ParaHash run — the read-code matrix and the hash-table
arrays (``state``, ``keys``, ``counts``; for k > 31 the split-key
planes ``keys_hi``/``keys_lo``) — into
:mod:`multiprocessing.shared_memory` segments so that

* worker processes operate on the *same* physical memory the parent
  reads results from (no pickling of multi-megabyte arrays), and
* the state-transfer protocol's occupancy flags live in genuinely
  concurrent memory when several processes insert into one table
  (see :mod:`repro.parallel.atomics_mp`).

Lifetime rules
--------------

Exactly one process *owns* each segment: the owner creates it, hands
the picklable :class:`SegmentSpec` to workers, and calls
:meth:`SharedSegment.unlink` once every attacher has exited (or no
longer needs the data).  Attachers call :func:`attach_segment` and
:meth:`SharedSegment.close` — never ``unlink``.  Both directions are
context managers, and the backend keeps every create inside a
``try/finally`` so segments cannot leak past a run even on error.

CPython's ``resource_tracker`` registers *attached* segments too
(bpo-38119).  The backend's workers inherit the parent's tracker
process (fork and spawn both pass the tracker fd down), so the
registration cache is shared and keyed by name: a worker's re-register
is a no-op and the owner's ``unlink`` removes the single entry.  No
unregister calls are needed — and none must be made from workers, as
that would delete the *owner's* registration out from under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Byte alignment of every array inside a segment (cache-line friendly,
#: and satisfies any dtype's alignment requirement).
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArrayField:
    """One named array inside a segment (picklable layout metadata)."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SegmentSpec:
    """Picklable description of a shared-memory segment and its arrays.

    This is the only thing that crosses the process boundary — workers
    reconstruct zero-copy numpy views from it via :func:`attach_segment`.
    """

    segment: str
    nbytes: int
    fields: tuple[ArrayField, ...]

    def field(self, name: str) -> ArrayField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"segment {self.segment} has no field {name!r}")


class SharedSegment:
    """A shared-memory segment plus numpy views over its arrays."""

    def __init__(self, spec: SegmentSpec, shm: shared_memory.SharedMemory,
                 owner: bool) -> None:
        self.spec = spec
        self._shm = shm
        self._owner = owner
        self.arrays: dict[str, np.ndarray] = {
            f.name: np.frombuffer(
                shm.buf, dtype=np.dtype(f.dtype),
                count=int(np.prod(f.shape, dtype=np.int64)), offset=f.offset,
            ).reshape(f.shape)
            for f in spec.fields
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        # The views hold references into shm.buf; numpy must release
        # them before the buffer can be closed.
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only); implies :meth:`close`."""
        if not self._owner:
            raise RuntimeError(
                f"segment {self.spec.segment} is attached, not owned; "
                "only the creating process may unlink it"
            )
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


def create_segment(fields: list[tuple[str, tuple[int, ...], str]]) -> SharedSegment:
    """Allocate a zero-filled segment holding the given arrays.

    ``fields`` is a list of ``(name, shape, dtype-string)``; the arrays
    are laid out back to back at 64-byte-aligned offsets.
    """
    laid_out: list[ArrayField] = []
    offset = 0
    for name, shape, dtype in fields:
        f = ArrayField(name=name, shape=tuple(int(s) for s in shape),
                       dtype=dtype, offset=offset)
        laid_out.append(f)
        offset = _aligned(offset + f.nbytes)
    total = max(1, offset)
    shm = shared_memory.SharedMemory(create=True, size=total)
    spec = SegmentSpec(segment=shm.name, nbytes=total, fields=tuple(laid_out))
    return SharedSegment(spec, shm, owner=True)


def attach_segment(spec: SegmentSpec) -> SharedSegment:
    """Attach to an existing segment by spec (worker side).

    The attacher must :meth:`SharedSegment.close` (never ``unlink``)
    when done, after dropping every array view it took — see the
    lifetime rules in the module docstring.
    """
    shm = shared_memory.SharedMemory(name=spec.segment)
    return SharedSegment(spec, shm, owner=False)


# -- read batches ---------------------------------------------------------------


def share_read_batch(batch) -> SharedSegment:
    """Copy a :class:`~repro.dna.reads.ReadBatch` into shared memory.

    Ownership of the segment transfers to the caller on success; if the
    copy itself fails (e.g. a dtype/shape surprise mid-write) the
    half-filled segment is unlinked here rather than leaked — the
    caller never learns its name, so nobody else could.
    """
    seg = create_segment([("codes", batch.codes.shape, "uint8")])
    try:
        seg["codes"][:] = batch.codes
    except BaseException:
        seg.unlink()
        raise
    return seg


def attach_read_batch(spec: SegmentSpec):
    """Zero-copy :class:`ReadBatch` over an attached segment.

    Returns ``(batch, segment)``; the caller must keep ``segment`` alive
    while the batch is in use and ``close()`` it afterwards.
    """
    from ..dna.reads import ReadBatch

    seg = attach_segment(spec)
    return ReadBatch(codes=seg["codes"]), seg


# -- hash tables ----------------------------------------------------------------

#: Header slots of a table segment (int64): occupied-entry count,
#: patched by the process that filled the table.
HEADER_N_OCCUPIED = 0
_HEADER_LEN = 2


def create_table_segment(capacity: int, k: int) -> SharedSegment:
    """Zero-filled backing store for one hash table (one- or two-word).

    Layout matches the table's arrays plus a small int64 header the
    filling worker patches (``n_occupied``).  ``capacity`` must already
    be the table's true (power-of-two) capacity.

    The key planes are the ones of :func:`repro.core.hashtable.table_class`
    for ``k``: one ``keys`` plane for ``k <= 31``, the split-key
    ``keys_hi``/``keys_lo`` planes (the ``k - 32`` leftmost and 32
    rightmost bases) for ``33 <= k <= 63``.  :func:`table_over_segment`
    rebuilds the matching table over the views, so backend call sites
    stay width-agnostic.
    """
    from ..core.hashtable import table_class
    from ..graph.dbg import N_SLOTS

    return create_segment([
        ("header", (_HEADER_LEN,), "int64"),
        ("state", (capacity,), "int8"),
        *((name, (capacity,), "uint64") for name in table_class(k).KEY_ARRAYS),
        ("counts", (capacity, N_SLOTS), "uint32"),
    ])


def table_over_segment(seg: SharedSegment, k: int, fresh: bool = False,
                       protocol: str = "locked"):
    """A hash table whose arrays are the segment's views (zero-copy).

    Returns the :func:`repro.core.hashtable.table_class` table for
    ``k`` — which must match the layout the segment was created with.
    ``protocol`` selects the per-slot insert protocol (the cross-process
    harness of :func:`repro.parallel.backend.concurrent_insert_processes`).

    With ``fresh=True`` the segment is assumed zero-filled (a new table);
    otherwise occupancy is recounted from the ``state`` array, so a
    parent can attach *after* a worker filled the table and read the
    result without any copy.
    """
    from ..core.hashtable import table_class

    cls = table_class(k)
    return cls.from_views(
        k, seg["state"], *(seg[name] for name in cls.KEY_ARRAYS),
        counts=seg["counts"], n_occupied=0 if fresh else None,
        protocol=protocol,
    )
