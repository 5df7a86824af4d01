"""Concurrent hash table with two-word keys (31 < K <= 63).

This is the configuration the state-transfer protocol exists for: the
key spans **two machine words**, so it cannot be claimed with a single
hardware CAS — which is exactly the limitation of word-sized CAS tables
the paper calls out (§I, §II-C).  Instead the per-slot ``occupancy``
flag is CASed EMPTY→LOCKED, *both* key words are written under the
lock, and OCCUPIED is published; from then on the two words are
immutable and read without synchronization.

Only what depends on the key encoding lives here: the per-operation
protocols, lookups and the lock-free fingerprint tag.  The
vectorized batch path, the threaded plumbing, the shared-memory attach
and ``to_graph`` are the width-generic :class:`repro.core.hashtable.PlaneHashTable`,
so both paths produce identical tables and meter the same
:class:`repro.core.hashtable.HashStats`.
"""

from __future__ import annotations

import time

import numpy as np

from ..concurrentsub.hashfunc import hash_planes, hash_planes_int
from ..core import hashtable as _ht
from ..core.hashtable import (
    EMPTY,
    LOCKED,
    OCCUPIED,
    SPIN_LIMIT,
    HashStats,
    PlaneHashTable,
    TableFullError,
    _mon_event,
    _trace,
)
from .kmer2w import check_2w_k, split_int

# Lock-free tag-plane encoding.  A two-word key cannot live in one
# atomic word, so the claim CAS installs a *fingerprint* of the key
# plus a claim bit; the publish store sets the publication bit after
# both key words are written.  All bits stay below 2^63 so the tag is a
# non-negative int64.
_FP_MASK = (1 << 61) - 1  # fingerprint: bits 0..60 of hash_planes
_CLAIM_BIT = 1 << 61
_PUB_BIT = 1 << 62


class TwoWordHashTable(PlaneHashTable):
    """The two-word table: keys are ``(hi, lo)`` uint64 plane pairs.

    ``protocol="locked"`` (default) runs the paper's state-transfer
    partial locking.  ``protocol="lockfree"`` removes the LOCKED state:
    the claim CAS installs a 61-bit key fingerprint (plus a claim bit)
    into the atomic word, the winner writes both key words plainly, and
    a publication bit is set last.  Readers whose fingerprint mismatches
    probe on *immediately* — they never wait; only a fingerprint match
    without the publication bit (the claim winner still writing its key
    words) waits for publication before the full key compare.

    Everything else — batch inserts, the threaded plumbing, the
    shared-memory attach, ``to_graph`` — is
    :class:`repro.core.hashtable.PlaneHashTable`.
    """

    KEY_ARRAYS = ("keys_hi", "keys_lo")

    @classmethod
    def _check_k(cls, k: int, protocol: str) -> None:
        check_2w_k(k)

    def _published_tags(self, occ: np.ndarray) -> np.ndarray:
        fp = hash_planes(self.keys_hi[occ], self.keys_lo[occ])  # checks: allow[R1] quiescent: runs under _init_lock or from the single-threaded resync
        return ((fp & np.uint64(_FP_MASK))
                | np.uint64(_CLAIM_BIT | _PUB_BIT)).astype(np.int64)

    def insert_one_threadsafe(self, kmer: int, slot: int,
                              local: HashStats | None = None) -> None:
        """Per-operation state machine with a genuinely multi-word key.

        Stats discipline matches the one-word table: per-thread stats
        when ``local`` is given, otherwise a scratch object merged into
        the shared ``self.stats`` under ``_stats_lock``.
        """
        self._ensure_threaded()
        if local is not None:
            self._insert_one(kmer, slot, local)
            return
        scratch = HashStats()
        self._insert_one(kmer, slot, scratch)
        with self._stats_lock:
            _trace("stats", id(self), 0, "write")
            self.stats = self.stats.merged_with(scratch)

    def _insert_one(self, kmer: int, slot: int, stats: HashStats) -> None:
        atomic = self._atomic_state
        assert atomic is not None and self._count_locks is not None
        stats.ops += 1
        stats.count_increments += 1
        hi, lo = split_int(int(kmer), self.k)
        if self.protocol == "lockfree":
            self._insert_one_lockfree(hi, lo, slot, stats)
            return
        h = hash_planes_int(hi, lo) & (self.capacity - 1)
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
                if atomic.compare_and_swap(pos, EMPTY, LOCKED):
                    # Both words written inside the single lock window.
                    _trace("keys_hi", id(self), pos, "write")
                    _trace("keys_lo", id(self), pos, "write")
                    self.keys_hi[pos] = np.uint64(hi)
                    self.keys_lo[pos] = np.uint64(lo)
                    stats.key_locks += 1
                    stats.inserts += 1
                    _mon_event("pre_publish", pos)
                    atomic.store(pos, OCCUPIED)
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue
            if st == LOCKED:
                stats.blocked_reads += 1
                spins += 1
                if spins >= SPIN_LIMIT:
                    # Yield so a descheduled writer can publish.
                    time.sleep(0)
                continue
            _trace("keys_hi", id(self), pos, "read-acq")
            _trace("keys_lo", id(self), pos, "read-acq")
            if int(self.keys_hi[pos]) == hi and int(self.keys_lo[pos]) == lo:  # checks: allow[R1] immutable after OCCUPIED publication
                stats.updates += 1
                self._add_count(pos, slot)
                return
            offset += 1
            stats.probes += 1

    def _insert_one_lockfree(self, hi: int, lo: int, slot: int,
                             stats: HashStats) -> None:
        """CAS-publish protocol for a genuinely multi-word key.

        The atomic word cannot hold the key, so the claim CAS installs
        ``_CLAIM_BIT | fingerprint`` (61 bits of the slot hash).  The
        winner writes both key words plainly — the claim CAS already
        serialized ownership of the slot — then stores ``_PUB_BIT`` as
        the release fence.  Readers whose fingerprint mismatches probe
        on immediately (no waiting on other keys' publications); only a
        fingerprint match without the publication bit spins, and only
        until the winner's single publish store lands.  There is no
        LOCKED state and no unlock path.
        """
        atomic = self._atomic_state
        assert atomic is not None
        hv = hash_planes_int(hi, lo)
        fp = hv & _FP_MASK
        claim = _CLAIM_BIT | fp
        pub = claim | _PUB_BIT
        h = hv & (self.capacity - 1)
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
                if atomic.compare_and_swap(pos, EMPTY, claim):
                    stats.inserts += 1
                    _trace("keys_hi", id(self), pos, "write")
                    _trace("keys_lo", id(self), pos, "write")
                    self.keys_hi[pos] = np.uint64(hi)
                    # Torn window: keys_hi is visible, keys_lo is not;
                    # only the _PUB_BIT wait below keeps readers out.
                    _mon_event("lf_prepub_gap", pos)
                    self.keys_lo[pos] = np.uint64(lo)
                    atomic.store(pos, pub)
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue
            if (st & _FP_MASK) != fp:
                offset += 1
                stats.probes += 1
                continue
            if not (st & _PUB_BIT) and "lf_torn_read" not in _ht._SEEDED_BUGS:
                stats.blocked_reads += 1
                spins += 1
                if spins >= SPIN_LIMIT:
                    # Yield so a descheduled claim winner can publish.
                    time.sleep(0)
                continue
            _trace("keys_hi", id(self), pos, "read-acq")
            _trace("keys_lo", id(self), pos, "read-acq")
            if int(self.keys_hi[pos]) == hi and int(self.keys_lo[pos]) == lo:  # checks: allow[R1] immutable after publication-bit store
                stats.updates += 1
                self._add_count(pos, slot)
                return
            # Fingerprint collision with a different key: probe on.
            offset += 1
            stats.probes += 1

    def lookup(self, kmer: int) -> np.ndarray | None:
        hi, lo = split_int(int(kmer), self.k)
        if self.protocol == "lockfree" and self._atomic_state is not None:
            return self._lookup_lockfree(hi, lo)
        h = hash_planes_int(hi, lo) & (self.capacity - 1)
        for offset in range(self.capacity):
            pos = (h + offset) & (self.capacity - 1)
            st = self._load_state(pos)
            if st == EMPTY:
                return None
            if st == OCCUPIED:
                if (int(self.keys_hi[pos]) == hi  # checks: allow[R1] immutable after OCCUPIED publication
                        and int(self.keys_lo[pos]) == lo):  # checks: allow[R1] immutable after OCCUPIED publication
                    return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
        return None

    def _lookup_lockfree(self, hi: int, lo: int) -> np.ndarray | None:
        """Live lock-free probe over the fingerprint tag plane."""
        atomic = self._atomic_state
        assert atomic is not None
        hv = hash_planes_int(hi, lo)
        fp = hv & _FP_MASK
        h = hv & (self.capacity - 1)
        offset = 0
        spins = 0
        while True:
            if offset >= self.capacity:
                return None
            pos = (h + offset) & (self.capacity - 1)
            st = atomic.load(pos)
            if st == EMPTY:
                return None
            if (st & _FP_MASK) != fp:
                # Another key's slot: probe on without waiting on its
                # publication.
                offset += 1
                continue
            if not (st & _PUB_BIT):
                # Fingerprint match but the claim winner is still
                # writing its key words; wait for the publication bit.
                spins += 1
                if spins >= SPIN_LIMIT:
                    time.sleep(0)
                continue
            if (int(self.keys_hi[pos]) == hi  # checks: allow[R1] immutable after publication-bit store
                    and int(self.keys_lo[pos]) == lo):  # checks: allow[R1] immutable after publication-bit store
                return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
            offset += 1
