"""The concurrent open-addressing hash table (ParaHash §III-C).

One table per subgraph, shared by *all* threads — unlike the
thread-local tables of SOAP-style assemblers whose parallelism is
capped by the table count.  Entries are ``<vertex, list of edges>``:
the key is a canonical kmer, the value is the 9-counter adjacency array
of :mod:`repro.graph.dbg`.

Two properties make the concurrency cheap:

* **No resizing.** Capacity is pre-computed from Property 1
  (:mod:`repro.core.estimator`), so the table never rebuilds.
* **State-transfer partial locking.** Each slot carries an
  ``occupancy`` flag ∈ {EMPTY, LOCKED, OCCUPIED}.  The multi-word key
  is written exactly once: a thread that finds EMPTY CASes it to
  LOCKED, writes the key, then publishes OCCUPIED.  From then on the
  key is immutable and read lock-free; edge counters are plain atomic
  increments.  Locking is therefore paid once per *distinct* vertex
  instead of once per kmer instance — with duplicates ≈ 4-6x the
  distinct count, that is the paper's ~80% lock-contention reduction.

A key is ``W`` uint64 planes: one for ``k <= 31``
(:class:`ConcurrentHashTable`), two for ``33 <= k <= 63``
(:class:`repro.bigk.table.TwoWordHashTable`, the multi-word case the
state transfer exists for).  :class:`PlaneHashTable` holds everything
that does not depend on the key encoding; :func:`table_class` picks the
width from ``k``.

Access paths:

* :meth:`PlaneHashTable.insert_batch` — vectorized rounds used by every
  build, the benchmarks and the simulated devices; single-threaded but
  *semantically identical* to the concurrent protocol, and it meters
  every probe/lock/update event into :class:`HashStats`.
* :meth:`PlaneHashTable.insert_threaded` — the real state machine on
  real Python threads (striped-lock CAS stand-ins for the hardware
  atomics), used to validate linearizability of the protocol.

Concurrency discipline
----------------------

While real threads run, the authoritative occupancy flags live in
``self._atomic_state`` (an :class:`AtomicInt64Array`); the numpy
``self.state`` array is a **single-threaded mirror** used by the
vectorized batch path and by queries on quiescent tables.  The mirror
is re-synced from the atomic array after every fork-join
(:meth:`insert_threaded`); it must never be read or written while
worker threads are live.  Shared mutable scalars (``stats``,
``n_occupied``) are only touched under their dedicated locks.  These
rules are enforced mechanically by ``python -m repro.checks lint`` (the
R1/R2 rules) and dynamically by the Eraser-style lockset detector in
:mod:`repro.checks.lockset`; the hooks the detector needs are the
``_trace``/``_mon_event`` shim calls below, which are no-ops unless a
monitor is installed via :func:`repro.concurrentsub.atomics.set_monitor`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..concurrentsub import atomics
from ..concurrentsub.atomics import AtomicInt64Array, TracedLock
from ..concurrentsub.hashfunc import hash_planes, mix64_int
from ..dna.kmer import key_planes
from ..graph.dbg import MULT_SLOT, N_SLOTS, DeBruijnGraph, plane_order
from .estimator import next_power_of_two

EMPTY = 0
LOCKED = 1
OCCUPIED = 2

#: Number of times a reader spins on a LOCKED flag before it starts
#: yielding its timeslice (``time.sleep(0)``) so a descheduled writer
#: can run and publish.  Bounded spinning keeps the fast path fast (a
#: writer publishes within a handful of instructions) while preventing
#: reader livelock when the writer loses the CPU between LOCKED and
#: OCCUPIED.
SPIN_LIMIT = 64

# -- test-only seeded bugs ------------------------------------------------------
#
# The repo's race-detector test suite re-introduces bugs that were fixed
# in this file (PR 1) to prove the detector catches them.  Each name
# gates the *old* faulty code path; production code never enables them.

_KNOWN_BUGS = frozenset(
    {"shared_stats", "numpy_publish", "tas_claim", "lf_torn_read"}
)
_SEEDED_BUGS: frozenset = frozenset()

#: Insert protocols selectable per table: the paper's
#: EMPTY->LOCKED->OCCUPIED state transfer, or the lock-free single-CAS
#: publish (no LOCKED intermediate state).
PROTOCOLS = ("locked", "lockfree")


@contextmanager
def seed_bugs(*names: str):
    """TEST ONLY: re-enable fixed concurrency bugs for detector validation.

    ``shared_stats``  — restore the plain read-modify-write on the shared
    ``self.stats`` object when no per-thread stats are supplied (lost
    increments under contention; flagged by lint rule R2 and the lockset
    detector).

    ``numpy_publish`` — restore the dual publication of OCCUPIED through
    the numpy ``state`` mirror and route ``lookup`` through that mirror
    (un-synchronized read while threads run; flagged by the lockset
    detector, reproduced by the interleaving scheduler).

    ``tas_claim`` — replace the slot claim's CAS with a load-then-store
    test-and-set: two threads can both observe EMPTY before either
    stores LOCKED, so both enter the exclusive key-write window (the
    ``insert[tas_claim]`` variant of ``repro.checks.model``, reproduced
    deterministically via the ``tas_gap`` control point).

    ``lf_torn_read`` — in the two-word lock-free reader
    (:mod:`repro.bigk.table`), skip the wait on the PUB bit: a reader
    that sees a claimed-but-unpublished tag compares the still-unwritten
    key words, falsely mismatches, and probes on to insert a duplicate
    vertex (the ``cas_publish[torn_read]`` variant of
    ``repro.checks.model``, reproduced via the ``lf_prepub_gap``
    control point).
    """
    unknown = set(names) - _KNOWN_BUGS
    if unknown:
        raise ValueError(f"unknown seeded bugs: {sorted(unknown)}")
    global _SEEDED_BUGS
    previous = _SEEDED_BUGS
    _SEEDED_BUGS = frozenset(previous | set(names))
    try:
        yield
    finally:
        _SEEDED_BUGS = previous


# -- access-recording shim (repro.checks) ---------------------------------------


def _trace(label: str, owner: int, index: int, kind: str) -> None:
    """Report a raw numpy access to the installed monitor, if any."""
    m = atomics.monitor()
    if m is not None:
        m.record(label, owner, index, kind)


def _mon_event(name: str, index: int | None = None, value=None) -> None:
    """Report a named control point (scheduler pause site), if monitored."""
    m = atomics.monitor()
    if m is not None:
        m.event(name, index, value)


class TableFullError(RuntimeError):
    """Raised when probing wraps around a full table.

    ParaHash avoids this by sizing tables from Property 1; hitting it
    means the sizing policy under-estimated the distinct-vertex count.
    """


@dataclass
class HashStats:
    """Metered events of a table's lifetime.

    ``key_locks`` counts multi-word key critical sections (one per
    insertion under state transfer); ``naive_locks`` counts what a
    whole-entry-locking design would pay (one lock per operation) — the
    ratio of the two is the §III-C3 contention-reduction claim.
    """

    ops: int = 0  # observations applied
    inserts: int = 0  # new distinct vertices
    updates: int = 0  # counter increments on existing vertices
    probes: int = 0  # slot visits beyond the first
    key_locks: int = 0  # state EMPTY -> LOCKED -> OCCUPIED transitions
    blocked_reads: int = 0  # times a thread saw LOCKED and had to wait
    cas_failures: int = 0  # lost CAS races on the state flag
    count_increments: int = 0  # atomic adds on the counter array

    @property
    def naive_locks(self) -> int:
        """Locks a design without state transfer would take (1 per op)."""
        return self.ops

    @property
    def lock_reduction(self) -> float:
        """Fraction of entry locks saved by state transfer (≈0.8 in paper)."""
        if self.ops == 0:
            return 0.0
        return 1.0 - self.key_locks / self.ops

    def merged_with(self, other: "HashStats") -> "HashStats":
        return HashStats(
            ops=self.ops + other.ops,
            inserts=self.inserts + other.inserts,
            updates=self.updates + other.updates,
            probes=self.probes + other.probes,
            key_locks=self.key_locks + other.key_locks,
            blocked_reads=self.blocked_reads + other.blocked_reads,
            cas_failures=self.cas_failures + other.cas_failures,
            count_increments=self.count_increments + other.count_increments,
        )


def table_class(k: int) -> type["PlaneHashTable"]:
    """The table class for ``k``: W = 1 or W = 2 key planes.

    W comes from :func:`repro.dna.kmer.key_planes` (one plane for
    ``k <= 31``, two for ``33 <= k <= 63``); it is never an option.
    """
    if key_planes(k) == 1:
        return ConcurrentHashTable
    from ..bigk.table import TwoWordHashTable

    return TwoWordHashTable


class PlaneHashTable:
    """Fixed-capacity open-addressing table over W uint64 key planes.

    The width-independent half of the §III-C table: construction,
    the vectorized batch path, the threaded-mode plumbing (atomic
    occupancy plane, counter locks, mirror re-sync) and the quiescent
    queries, ``to_graph`` among them.  A subclass names its key arrays
    in :attr:`KEY_ARRAYS` and supplies what depends on the key encoding:
    the per-operation protocols (``insert_one_threadsafe``,
    ``_insert_one``, ``_insert_one_lockfree``), ``lookup`` and the
    lock-free tag of an occupied slot (:meth:`_published_tags`).

    ``protocol="locked"`` (default) runs the paper's state-transfer
    partial locking; ``protocol="lockfree"`` the CAS-publish protocol
    with no LOCKED state.  Both fill identical tables.
    """

    #: Names of the key-plane arrays, most significant plane first.
    KEY_ARRAYS: ClassVar[tuple[str, ...]] = ()

    def __init__(self, capacity: int, k: int, counts_dtype=np.uint32,
                 protocol: str = "locked") -> None:
        self._validate(k, protocol)
        self.capacity = next_power_of_two(max(2, capacity))
        self._mask = np.uint64(self.capacity - 1)
        self.k = k
        self.state = np.zeros(self.capacity, dtype=np.int8)
        for name in self.KEY_ARRAYS:
            setattr(self, name, np.zeros(self.capacity, dtype=np.uint64))
        self.counts = np.zeros((self.capacity, N_SLOTS), dtype=counts_dtype)
        self.n_occupied = 0
        self._init_runtime(protocol)

    @classmethod
    def _validate(cls, k: int, protocol: str) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {PROTOCOLS}, got {protocol!r}"
            )
        cls._check_k(k, protocol)

    @classmethod
    def _check_k(cls, k: int, protocol: str) -> None:
        raise NotImplementedError

    def _init_runtime(self, protocol: str = "locked") -> None:
        """State shared by both constructors (stats + lazy threaded locks)."""
        self.protocol = protocol
        self.stats = HashStats()
        # Threaded-path machinery (created lazily, under _init_lock).
        self._atomic_state: AtomicInt64Array | None = None
        self._count_locks: list[TracedLock] | None = None
        self._occupied_lock = TracedLock("occupied_lock")
        self._stats_lock = TracedLock("stats_lock")
        self._init_lock = threading.Lock()

    @classmethod
    def from_views(cls, k: int, state: np.ndarray, *keys: np.ndarray,
                   counts: np.ndarray, n_occupied: int | None = None,
                   protocol: str = "locked") -> "PlaneHashTable":
        """Construct a table over externally owned buffers (no copy).

        This is the pickle-free attach path of the process backend: the
        arrays (``state``, one view per key plane, ``counts``) are
        typically numpy views over one ``multiprocessing.shared_memory``
        segment (see :func:`repro.parallel.shm.table_over_segment`), so
        a worker process fills the very memory the parent later reads
        the graph from.  The caller owns buffer lifetime — the views
        must outlive the table.  With ``n_occupied=None`` occupancy is
        recounted from ``state`` (attaching to a table another process
        filled).
        """
        cls._validate(k, protocol)
        capacity = int(state.size)
        if capacity < 2 or capacity & (capacity - 1):
            raise ValueError("state size must be a power of two >= 2")
        if len(keys) != len(cls.KEY_ARRAYS):
            raise ValueError(
                f"need {len(cls.KEY_ARRAYS)} key plane(s), got {len(keys)}"
            )
        if any(plane.shape != (capacity,) for plane in keys) \
                or counts.shape[0] != capacity:
            raise ValueError("state, keys and counts must agree on capacity")
        table = cls.__new__(cls)
        table.capacity = capacity
        table._mask = np.uint64(capacity - 1)
        table.k = k
        table.state = state
        for name, plane in zip(cls.KEY_ARRAYS, keys):
            setattr(table, name, plane)
        table.counts = counts
        table.n_occupied = (
            int((state == OCCUPIED).sum()) if n_occupied is None
            else int(n_occupied)
        )
        table._init_runtime(protocol)
        return table

    def detach_views(self) -> None:
        """Release the array references (before closing a shared segment).

        Shared-memory buffers cannot unmap while numpy views alias them;
        a table attached via :meth:`from_views` must call this before
        the owning segment is closed.  Every key plane is dropped, and
        the table holds no other reference to one.  The table is
        unusable afterwards.
        """
        self.state = self.counts = None  # type: ignore[assignment]
        for name in self.KEY_ARRAYS:
            setattr(self, name, None)
        self._atomic_state = None

    def _key_arrays(self) -> tuple[np.ndarray, ...]:
        """The key planes, most significant first (a fresh tuple)."""
        return tuple(getattr(self, name) for name in self.KEY_ARRAYS)

    # -- sizing ---------------------------------------------------------------

    @property
    def load_factor(self) -> float:
        return self.n_occupied / self.capacity

    def memory_bytes(self) -> int:
        return int(
            self.state.nbytes
            + sum(plane.nbytes for plane in self._key_arrays())
            + self.counts.nbytes
        )

    # -- vectorized single-threaded path ---------------------------------------

    def insert_batch(self, *arrays: np.ndarray,
                     counts: np.ndarray | None = None,
                     chunk: int = 1 << 20) -> None:
        """Apply ``(*planes, slots)`` observations, vectorized.

        ``arrays`` holds the W key planes then the counter slots, as
        :func:`repro.core.subgraph.block_observations` returns them.
        Each observation increments ``counts[entry(key), slot]``,
        inserting the entry on first sight.  The outcome is identical
        to running the concurrent protocol, and stats are metered as if
        the protocol had run (one key lock per insertion, one atomic
        increment per observation).

        With ``counts`` given (the pre-aggregation path of
        :func:`repro.core.subgraph.preaggregate_observations`), each
        ``(key, slot)`` pair carries a multiplicity: the counter is
        bumped by ``counts[i]`` in one touch, while the stats are
        metered for the ``counts[i]`` individual observations the
        un-aggregated concurrent protocol would have executed — one op
        and one atomic increment per observation, one key lock per
        *distinct* vertex, every duplicate beyond the inserting one an
        update.  ``HashStats.lock_reduction`` is therefore unchanged by
        aggregation; what the table actually pays shrinks to one probe
        walk and one counter write per distinct pair.

        Single-threaded only: this path writes the numpy mirror
        directly and must never overlap :meth:`insert_threaded`.
        Raises :class:`TableFullError` when probing wraps a full table.
        """
        if len(arrays) != len(self.KEY_ARRAYS) + 1:
            raise ValueError(
                f"expected {len(self.KEY_ARRAYS)} key plane(s) and slots, "
                f"got {len(arrays)} arrays"
            )
        *planes, slots = arrays
        planes = [np.ascontiguousarray(p, dtype=np.uint64).ravel() for p in planes]
        slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
        if any(p.shape != slots.shape for p in planes):
            raise ValueError("key planes and slots must be parallel arrays")
        if counts is not None:
            counts = np.ascontiguousarray(counts, dtype=np.int64).ravel()
            if counts.shape != slots.shape:
                raise ValueError("counts must parallel the keys and slots")
            if counts.size and int(counts.min()) < 1:
                raise ValueError("every aggregated count must be >= 1")
        for lo in range(0, slots.size, chunk):
            self._insert_chunk(
                [p[lo : lo + chunk] for p in planes], slots[lo : lo + chunk],
                None if counts is None else counts[lo : lo + chunk],
            )
        if self._atomic_state is not None:
            # Keep the authoritative threaded-mode flags in sync when a
            # quiescent table mixes batch and threaded insertions.
            self._resync_atomic()

    def _insert_chunk(self, planes: list[np.ndarray], slots: np.ndarray,
                      weights: np.ndarray | None = None) -> None:
        stats = self.stats
        n = slots.size
        n_ops = n if weights is None else int(weights.sum())
        stats.ops += n_ops
        stats.count_increments += n_ops
        stored = self._key_arrays()
        home = hash_planes(*planes) & self._mask
        pending = np.arange(n, dtype=np.int64)
        offset = np.zeros(n, dtype=np.uint64)
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > self.capacity + 2:
                raise TableFullError(
                    f"probe wrapped a table of capacity {self.capacity} "
                    f"(occupied {self.n_occupied})"
                )
            pos = (home[pending] + offset[pending]) & self._mask
            st = self.state[pos]
            is_occ = st == OCCUPIED
            match = is_occ
            for keys_here, plane in zip(stored, planes):
                match = match & (keys_here[pos] == plane[pending])
            if match.any():
                rows = pos[match].astype(np.int64)
                cols = slots[pending[match]]
                if weights is None:
                    np.add.at(self.counts, (rows, cols), 1)
                    stats.updates += int(match.sum())
                else:
                    w = weights[pending[match]]
                    np.add.at(self.counts, (rows, cols), w)
                    stats.updates += int(w.sum())
            mismatch = is_occ & ~match
            empty = st == EMPTY
            # Claim empty slots: the first pending op targeting each
            # distinct empty position wins the CAS; others retry.
            winners = np.zeros(pending.size, dtype=bool)
            if empty.any():
                empty_idx = np.nonzero(empty)[0]
                _, first = np.unique(pos[empty_idx], return_index=True)
                win_idx = empty_idx[first]
                winners[win_idx] = True
                wpos = pos[win_idx].astype(np.int64)
                wops = pending[win_idx]
                self.state[wpos] = OCCUPIED
                for keys_here, plane in zip(stored, planes):
                    keys_here[wpos] = plane[wops]
                if weights is None:
                    np.add.at(self.counts, (wpos, slots[wops]), 1)
                    lost = int(empty.sum()) - wpos.size
                else:
                    w = weights[wops]
                    np.add.at(self.counts, (wpos, slots[wops]), w)
                    # Un-aggregated, the duplicates behind each winning
                    # pair lose the CAS once and then update; pairs that
                    # lost to a different key lose once per observation.
                    stats.updates += int(w.sum()) - wpos.size
                    lost = int(w.sum()) - wpos.size
                    losers = empty & ~winners
                    if losers.any():
                        lost += int(weights[pending[losers]].sum())
                self.n_occupied += wpos.size
                stats.inserts += wpos.size
                if self.protocol == "locked":
                    # Lock-free publishes with the claim CAS itself: no
                    # key critical section is ever taken.
                    stats.key_locks += wpos.size
                stats.cas_failures += lost
            # Advance mismatches; retry CAS losers at the same offset
            # (they will match or mismatch the freshly written key).
            advance = mismatch
            if weights is None:
                stats.probes += int(advance.sum())
            else:
                stats.probes += int(weights[pending[advance]].sum())
            keep = (~match) & (~winners)
            offset_add = advance[keep].astype(np.uint64)
            pending = pending[keep]
            if pending.size:
                offset[pending] += offset_add

    # -- threaded path ----------------------------------------------------------

    def _published_tags(self, occ: np.ndarray) -> np.ndarray:
        """Lock-free atomic words (int64) of the occupied slots ``occ``."""
        raise NotImplementedError

    def _atomic_words(self) -> np.ndarray:
        """The numpy mirror in the atomic plane's encoding.

        Occupancy flags under ``locked``; under ``lockfree`` the
        subclass's published tag per occupied slot and 0 elsewhere.
        Quiescent tables only.
        """
        if self.protocol != "lockfree":
            return self.state
        words = np.zeros(self.capacity, dtype=np.int64)
        occ = self.state == OCCUPIED
        words[occ] = self._published_tags(occ)
        return words

    def _ensure_threaded(self) -> None:
        if self._atomic_state is not None:
            return
        # Double-checked under a lock: concurrent first calls must not
        # each build their own atomic array (that would give every
        # thread a private "shared" state and break mutual exclusion).
        with self._init_lock:
            if self._atomic_state is not None:
                return
            atomic = AtomicInt64Array(self.capacity, n_stripes=256)
            raw = atomic.raw()  # checks: allow[R3] pre-publication init under _init_lock
            raw[:] = self._atomic_words()
            self._count_locks = [
                TracedLock(f"count_lock[{i}]") for i in range(256)
            ]
            self._atomic_state = atomic

    def _resync_atomic(self) -> None:
        """Rebuild the authoritative atomic plane from the numpy mirror.

        Only legal on a quiescent table: the batch path calls it after
        mixing vectorized and threaded insertions.
        """
        assert self._atomic_state is not None
        raw = self._atomic_state.raw()  # checks: allow[R3] single-threaded resync
        raw[:] = self._atomic_words()

    def _add_count(self, pos: int, slot: int) -> None:
        assert self._count_locks is not None
        with self._count_locks[pos % len(self._count_locks)]:
            _trace("counts", id(self), pos, "write")
            self.counts[pos, slot] += 1

    def insert_threaded(self, kmers, slots: np.ndarray,
                        n_threads: int) -> list[HashStats]:
        """Partition the observations over real threads and run them.

        ``kmers`` is a sequence of integer kmers (a uint64 array for
        one-word keys, Python ints for wider ones).  Returns per-thread
        stats; the aggregate is merged into ``self.stats``.  After the
        join, the single-threaded numpy mirror of the occupancy flags
        is re-synced from the atomic array.
        """
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        slots = np.asarray(slots, dtype=np.int64).ravel()
        bounds = np.linspace(0, len(kmers), n_threads + 1).astype(int)
        locals_ = [HashStats() for _ in range(n_threads)]
        errors: list[BaseException] = []

        def work(t: int) -> None:
            try:
                for i in range(bounds[t], bounds[t + 1]):
                    self.insert_one_threadsafe(int(kmers[i]), int(slots[i]), locals_[t])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._sync_mirror()
        if errors:
            raise errors[0]
        with self._stats_lock:
            _trace("stats", id(self), 0, "write")
            for s in locals_:
                self.stats = self.stats.merged_with(s)
        return locals_

    def _sync_mirror(self) -> None:
        """Re-sync the single-threaded numpy mirror after a fork-join."""
        if self._atomic_state is not None:
            snap = self._atomic_state.snapshot()
            if self.protocol == "lockfree":
                # The atomic plane holds tags; any non-zero word is a
                # published entry.
                snap = np.where(snap != 0, OCCUPIED, EMPTY)
            self.state[:] = snap.astype(self.state.dtype)

    # -- queries ------------------------------------------------------------------

    def _load_state(self, pos: int) -> int:
        """One occupancy flag, via the atomic array while threads may run."""
        atomic = self._atomic_state
        if atomic is not None and "numpy_publish" not in _SEEDED_BUGS:
            raw = atomic.load(pos)
            if self.protocol == "lockfree":
                # The word is a tag; occupancy is its non-zeroness.
                return OCCUPIED if raw != EMPTY else EMPTY
            return raw
        _trace("state", id(self), pos, "read")
        return int(self.state[pos])

    def _state_view(self) -> np.ndarray:
        """All occupancy flags; authoritative in either mode.

        The numpy ``self.state`` array is a single-threaded mirror: it
        is stale while worker threads run, so bulk queries go through an
        atomic snapshot whenever the threaded machinery exists.
        """
        if self._atomic_state is not None:
            snap = self._atomic_state.snapshot()
            if self.protocol == "lockfree":
                snap = np.where(snap != 0, OCCUPIED, EMPTY)
            return snap.astype(np.int8)
        return self.state

    def to_graph(self) -> DeBruijnGraph:
        """Extract the subgraph: occupied entries sorted by vertex."""
        occ = self._state_view() == OCCUPIED
        planes = [plane[occ] for plane in self._key_arrays()]
        counts = self.counts[occ].astype(np.uint64)
        order = plane_order(planes)
        return DeBruijnGraph(self.k, tuple(p[order] for p in planes),
                             counts[order])

    def multiplicity_histogram(self, max_mult: int = 16) -> np.ndarray:
        """Histogram of vertex multiplicities (error-filtering diagnostics)."""
        occ = self._state_view() == OCCUPIED
        mult = self.counts[occ, MULT_SLOT]
        return np.bincount(
            np.minimum(mult, max_mult).astype(np.int64), minlength=max_mult + 1
        )


class ConcurrentHashTable(PlaneHashTable):
    """The one-word table: keys are single uint64 kmers (``k <= 31``).

    ``protocol="locked"`` (default) runs the paper's state-transfer
    partial locking.  ``protocol="lockfree"`` removes the LOCKED
    intermediate state entirely: the claim CAS installs the *biased key*
    (``kmer + 1``, so 0 stays the EMPTY sentinel) into the atomic word —
    claiming and publishing are one instruction, readers compare the tag
    and never wait.  Lock-free requires one-word keys strictly below
    ``2^63`` (``k <= 31``), which every one-word kmer satisfies.
    """

    KEY_ARRAYS = ("keys",)

    @classmethod
    def _check_k(cls, k: int, protocol: str) -> None:
        if k < 1 or 2 * k > 64:
            raise ValueError(
                "this table stores one-word (uint64) keys; need 1 <= k and 2k <= 64"
            )
        if protocol == "lockfree" and 2 * k > 62:
            # The lock-free claim CAS installs the biased key (kmer + 1)
            # into a signed 64-bit atomic word, so the key must fit in 62
            # bits.  Builds never use k = 32 (see key_planes).
            raise ValueError("lockfree protocol needs 2k <= 62 (one-word keys)")

    def _published_tags(self, occ: np.ndarray) -> np.ndarray:
        return (self.keys[occ] + np.uint64(1)).astype(np.int64)

    def insert_one_threadsafe(self, kmer: int, slot: int,
                              local: "HashStats | None" = None) -> None:
        """The per-operation concurrent protocol (real threads).

        Implements the §III-C3 state machine: CAS EMPTY->LOCKED, write
        the key, publish OCCUPIED; concurrent readers seeing LOCKED spin
        (bounded, then yield) until publication; counter updates are
        atomic adds.

        Stats are metered into ``local`` when given (the pattern
        :meth:`insert_threaded` uses — one private ``HashStats`` per
        thread, merged after the join).  Without ``local``, the op is
        metered into a scratch object that is folded into the shared
        ``self.stats`` under ``_stats_lock``: the shared object is never
        the target of a plain read-modify-write from a worker thread.
        """
        self._ensure_threaded()
        if local is not None:
            self._insert_one(kmer, slot, local)
            return
        if "shared_stats" in _SEEDED_BUGS:
            # PR-1 bug, reintroduced for detector tests: non-atomic
            # read-modify-writes on the shared stats object.  The RMW is
            # split across a scheduler control point so the lost-update
            # window is deterministically reproducible.
            _trace("stats", id(self), 0, "write")
            before = self.stats.ops
            _mon_event("stats_rmw", None, before)
            scratch = HashStats()
            self._insert_one(kmer, slot, scratch)
            merged = self.stats.merged_with(scratch)
            merged.ops = before + scratch.ops
            self.stats = merged
            return
        scratch = HashStats()
        self._insert_one(kmer, slot, scratch)
        with self._stats_lock:
            _trace("stats", id(self), 0, "write")
            self.stats = self.stats.merged_with(scratch)

    def _insert_one(self, kmer: int, slot: int, stats: HashStats) -> None:
        if self.protocol == "lockfree":
            self._insert_one_lockfree(kmer, slot, stats)
            return
        atomic = self._atomic_state
        assert atomic is not None and self._count_locks is not None
        stats.ops += 1
        stats.count_increments += 1
        h = mix64_int(kmer) & (self.capacity - 1)
        offset = 0
        spins = 0
        while True:
            if offset >= self.capacity:
                raise TableFullError(
                    f"probe wrapped a table of capacity {self.capacity}"
                )
            pos = (h + offset) & (self.capacity - 1)
            st = atomic.load(pos)
            if st == EMPTY:
                if "tas_claim" in _SEEDED_BUGS:
                    # Corpus bug (repro.checks.model insert[tas_claim]):
                    # the claim is a load-then-store test-and-set — the
                    # EMPTY load above is the test, and this store does
                    # not re-check it.  The gap between them is the
                    # window the model checker refutes and the replay
                    # scheduler holds open via the ``tas_gap`` point.
                    _mon_event("tas_gap", pos)
                    atomic.store(pos, LOCKED)
                    won = True
                else:
                    won = atomic.compare_and_swap(pos, EMPTY, LOCKED)
                if won:
                    # Exclusive writer: the key is written exactly once,
                    # inside the LOCKED->OCCUPIED window.
                    _trace("keys", id(self), pos, "write")
                    self.keys[pos] = np.uint64(kmer)
                    stats.key_locks += 1
                    stats.inserts += 1
                    _mon_event("pre_publish", pos)
                    atomic.store(pos, OCCUPIED)
                    if "numpy_publish" in _SEEDED_BUGS:
                        # PR-1 bug, reintroduced for detector tests: a
                        # plain numpy write shadowing the atomic store,
                        # read un-synchronized by lookup().
                        _mon_event("numpy_publish", pos)
                        _trace("state", id(self), pos, "write")
                        self.state[pos] = OCCUPIED
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue  # retry the same slot
            if st == LOCKED:
                stats.blocked_reads += 1
                spins += 1
                if spins >= SPIN_LIMIT:
                    # The writer that holds this slot LOCKED may be
                    # descheduled; yield so it can run and publish.
                    time.sleep(0)
                continue  # spin until the writer publishes
            # OCCUPIED: the key is immutable, read without locking.  The
            # read is publication-ordered (we observed OCCUPIED through
            # the atomic flag first), hence "read-acq".
            _trace("keys", id(self), pos, "read-acq")
            if int(self.keys[pos]) == kmer:  # checks: allow[R1] immutable after OCCUPIED publication
                stats.updates += 1
                self._add_count(pos, slot)
                return
            offset += 1
            stats.probes += 1

    def _insert_one_lockfree(self, kmer: int, slot: int,
                             stats: HashStats) -> None:
        """The CAS-publish protocol: claim == publication, no LOCKED state.

        The atomic word holds the *biased key* (``kmer + 1``) instead of
        an occupancy flag: a single ``CAS(0 -> kmer + 1)`` both claims
        the slot and publishes the key's identity, so there is no window
        in which a reader must wait — a mismatching tag means "probe
        on", immediately.  The numpy ``keys`` plane is written by the
        claim winner afterwards purely for the quiescent query paths
        (``to_graph``); live readers only ever compare the tag.  Edge
        counters stay atomic fetch-adds, exactly as under ``locked``.

        Consequently ``key_locks`` and ``blocked_reads`` stay zero: the
        protocol never takes a key critical section and never spins.
        """
        atomic = self._atomic_state
        assert atomic is not None and self._count_locks is not None
        stats.ops += 1
        stats.count_increments += 1
        tag = kmer + 1  # biased key: 0 remains the empty sentinel
        h = mix64_int(kmer) & (self.capacity - 1)
        offset = 0
        while True:
            if offset >= self.capacity:
                raise TableFullError(
                    f"probe wrapped a table of capacity {self.capacity}"
                )
            pos = (h + offset) & (self.capacity - 1)
            st = atomic.load(pos)
            if st == EMPTY:
                if atomic.compare_and_swap(pos, EMPTY, tag):
                    stats.inserts += 1
                    # The slot is already published; this write backfills
                    # the quiescent-mode mirror and is unraced (exactly
                    # one claim winner per slot, readers compare tags).
                    _trace("keys", id(self), pos, "write")
                    self.keys[pos] = np.uint64(kmer)
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue  # retry the same slot against the new tag
            if st == tag:
                stats.updates += 1
                self._add_count(pos, slot)
                return
            offset += 1
            stats.probes += 1

    def lookup(self, kmer: int) -> np.ndarray | None:
        """Counter row for a kmer, or ``None`` when absent.

        Safe to call concurrently with :meth:`insert_one_threadsafe`:
        occupancy flags are read through the atomic array (never the
        numpy mirror) while the threaded machinery exists.
        """
        kmer = int(kmer)
        atomic = self._atomic_state
        lockfree_live = self.protocol == "lockfree" and atomic is not None
        h = mix64_int(kmer) & (self.capacity - 1)
        for offset in range(self.capacity):
            pos = (h + offset) & (self.capacity - 1)
            if lockfree_live:
                # The atomic word *is* the biased key: one load both
                # tests occupancy and compares identity — lock-free
                # readers never wait and never touch the keys plane.
                tag = atomic.load(pos)
                if tag == EMPTY:
                    return None
                if tag == kmer + 1:
                    return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
                continue
            st = self._load_state(pos)
            if st == EMPTY:
                return None
            if st == OCCUPIED and int(self.keys[pos]) == kmer:  # checks: allow[R1] immutable after OCCUPIED publication
                return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
        return None
