"""Tests for repro.core.hashtable (serial/vectorized path)."""

import numpy as np
import pytest

from repro.core.hashtable import (
    EMPTY,
    OCCUPIED,
    ConcurrentHashTable,
    HashStats,
    TableFullError,
)
from repro.graph.dbg import MULT_SLOT


def random_observations(rng, n_distinct=200, n_obs=2000, k=15):
    keys = rng.integers(0, 1 << (2 * k), size=n_distinct, dtype=np.uint64)
    keys = np.unique(keys)
    idx = rng.integers(0, keys.size, size=n_obs)
    kmers = keys[idx]
    slots = rng.integers(0, 9, size=n_obs).astype(np.int64)
    return kmers, slots


class TestInsertBatch:
    def test_counts_match_bincount(self, rng):
        kmers, slots = random_observations(rng)
        table = ConcurrentHashTable(4096, k=15)
        table.insert_batch(kmers, slots)
        for kmer in np.unique(kmers)[:50]:
            row = table.lookup(int(kmer))
            assert row is not None
            for slot in range(9):
                expected = int(((kmers == kmer) & (slots == slot)).sum())
                assert int(row[slot]) == expected

    def test_n_occupied(self, rng):
        kmers, slots = random_observations(rng)
        table = ConcurrentHashTable(4096, k=15)
        table.insert_batch(kmers, slots)
        assert table.n_occupied == np.unique(kmers).size

    def test_chunked_equals_single(self, rng):
        kmers, slots = random_observations(rng, n_obs=5000)
        t1 = ConcurrentHashTable(4096, k=15)
        t1.insert_batch(kmers, slots)
        t2 = ConcurrentHashTable(4096, k=15)
        t2.insert_batch(kmers, slots, chunk=137)
        assert t1.to_graph().equals(t2.to_graph())

    def test_order_invariance(self, rng):
        kmers, slots = random_observations(rng)
        perm = rng.permutation(kmers.size)
        t1 = ConcurrentHashTable(2048, k=15)
        t1.insert_batch(kmers, slots)
        t2 = ConcurrentHashTable(2048, k=15)
        t2.insert_batch(kmers[perm], slots[perm])
        assert t1.to_graph().equals(t2.to_graph())

    def test_high_load_factor_still_correct(self, rng):
        kmers = np.unique(rng.integers(0, 1 << 30, size=900, dtype=np.uint64))
        slots = np.full(kmers.size, MULT_SLOT, dtype=np.int64)
        table = ConcurrentHashTable(1024, k=15)
        table.insert_batch(kmers, slots)
        assert table.n_occupied == kmers.size
        assert table.load_factor > 0.8
        g = table.to_graph()
        assert np.array_equal(g.planes[0], np.sort(kmers))

    def test_table_full_raises(self, rng):
        kmers = np.unique(rng.integers(0, 1 << 30, size=5000, dtype=np.uint64))
        slots = np.zeros(kmers.size, dtype=np.int64)
        table = ConcurrentHashTable(64, k=15)
        with pytest.raises(TableFullError):
            table.insert_batch(kmers, slots)

    def test_mismatched_arrays(self):
        table = ConcurrentHashTable(64, k=15)
        with pytest.raises(ValueError):
            table.insert_batch(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64))

    def test_empty_batch(self):
        table = ConcurrentHashTable(64, k=15)
        table.insert_batch(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert table.n_occupied == 0


class TestStats:
    def test_ops_and_inserts(self, rng):
        kmers, slots = random_observations(rng, n_distinct=100, n_obs=1500)
        table = ConcurrentHashTable(1024, k=15)
        table.insert_batch(kmers, slots)
        assert table.stats.ops == 1500
        assert table.stats.inserts == np.unique(kmers).size
        assert table.stats.updates == 1500 - np.unique(kmers).size
        assert table.stats.count_increments == 1500

    def test_key_locks_once_per_distinct(self, rng):
        # The state-transfer claim: the multi-word key is locked exactly
        # once per distinct vertex.
        kmers, slots = random_observations(rng, n_distinct=50, n_obs=5000)
        table = ConcurrentHashTable(512, k=15)
        table.insert_batch(kmers, slots)
        assert table.stats.key_locks == np.unique(kmers).size

    def test_lock_reduction_matches_duplicate_ratio(self, rng):
        # With distinct : total = 1 : 5, locks drop by 80% (§III-C).
        distinct = np.unique(rng.integers(0, 1 << 40, size=300, dtype=np.uint64))
        n_total = distinct.size * 5
        kmers = np.repeat(distinct, 5)
        slots = np.full(n_total, MULT_SLOT, dtype=np.int64)
        table = ConcurrentHashTable(4096, k=27)
        table.insert_batch(kmers, slots)
        assert table.stats.lock_reduction == pytest.approx(0.8)
        assert table.stats.naive_locks == n_total

    def test_merged_with(self):
        a = HashStats(ops=10, inserts=2, updates=8, probes=1, key_locks=2,
                      blocked_reads=0, cas_failures=0, count_increments=10)
        b = HashStats(ops=5, inserts=1, updates=4, probes=0, key_locks=1,
                      blocked_reads=2, cas_failures=1, count_increments=5)
        m = a.merged_with(b)
        assert m.ops == 15 and m.inserts == 3 and m.blocked_reads == 2

    def test_empty_stats_lock_reduction(self):
        assert HashStats().lock_reduction == 0.0


class TestLookupAndExtraction:
    def test_lookup_missing(self, rng):
        kmers, slots = random_observations(rng)
        table = ConcurrentHashTable(2048, k=15)
        table.insert_batch(kmers, slots)
        absent = int(np.setdiff1d(
            np.arange(100, dtype=np.uint64), np.unique(kmers)
        )[0])
        assert table.lookup(absent) is None

    def test_to_graph_sorted(self, rng):
        kmers, slots = random_observations(rng)
        table = ConcurrentHashTable(2048, k=15)
        table.insert_batch(kmers, slots)
        g = table.to_graph()
        assert np.array_equal(g.planes[0], np.sort(np.unique(kmers)))
        assert g.total_kmer_instances() == int((slots == MULT_SLOT).sum())

    def test_multiplicity_histogram(self, rng):
        distinct = np.unique(rng.integers(0, 1 << 40, size=64, dtype=np.uint64))
        kmers = np.concatenate([distinct, distinct[:10]])
        slots = np.full(kmers.size, MULT_SLOT, dtype=np.int64)
        table = ConcurrentHashTable(256, k=27)
        table.insert_batch(kmers, slots)
        hist = table.multiplicity_histogram(max_mult=4)
        assert hist[1] == distinct.size - 10
        assert hist[2] == 10

    def test_state_flags(self, rng):
        kmers, slots = random_observations(rng, n_distinct=20, n_obs=100)
        table = ConcurrentHashTable(256, k=15)
        table.insert_batch(kmers, slots)
        assert int((table.state == OCCUPIED).sum()) == table.n_occupied
        assert int((table.state == EMPTY).sum()) == table.capacity - table.n_occupied


class TestConstruction:
    def test_capacity_rounded_to_pow2(self):
        table = ConcurrentHashTable(1000, k=15)
        assert table.capacity == 1024

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            ConcurrentHashTable(64, k=33)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ConcurrentHashTable(64, k=0)

    def test_memory_bytes(self):
        table = ConcurrentHashTable(256, k=15)
        assert table.memory_bytes() == 256 * (1 + 8 + 4 * 9)
