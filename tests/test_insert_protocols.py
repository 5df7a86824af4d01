"""Locked vs lock-free insert protocols on flat tables.

Every build inserts each partition from one owner with the locked
protocol; the lock-free CAS-publish protocol runs where inserts are
genuinely concurrent: the per-op threaded table path and the
cross-process harness.  Both protocols must build the identical graph
on both key widths, the lock-free threaded variant must pass the
lockset monitor without ever taking a key lock, and an adversarial
schedule of the claim→publish gap must not let a reader trust a torn
two-word key.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bigk.kmer2w import split_int
from repro.bigk.table import TwoWordHashTable
from repro.core.hashtable import ConcurrentHashTable, HashStats
from repro.graph.compare import compare_graphs

PROTOCOLS = ["locked", "lockfree"]


def assert_identical(a, b):
    cmp = compare_graphs(a, b)
    assert cmp.n_only_a == 0 and cmp.n_only_b == 0, cmp
    assert np.array_equal(a.counts, b.counts)


def observations(rng, n_distinct=150, n_obs=3000, k=15):
    keys = np.unique(
        rng.integers(0, 1 << (2 * k), size=n_distinct, dtype=np.uint64))
    idx = rng.integers(0, keys.size, size=n_obs)
    return keys[idx], rng.integers(0, 9, size=n_obs).astype(np.int64)


# -- batch equivalence, both key widths -------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batch_matches_locked_one_word(rng, protocol):
    kmers, slots = observations(rng)
    reference = ConcurrentHashTable(2048, k=15)
    reference.insert_batch(kmers, slots)
    table = ConcurrentHashTable(2048, k=15, protocol=protocol)
    table.insert_batch(kmers, slots)
    assert_identical(reference.to_graph(), table.to_graph())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batch_matches_locked_two_word(rng, protocol):
    k = 33
    kmers = np.unique(
        rng.integers(0, 1 << 62, size=120, dtype=np.uint64)).astype(np.uint64)
    idx = rng.integers(0, kmers.size, size=1500)
    obs = kmers[idx]
    slots = rng.integers(0, 9, size=obs.size).astype(np.int64)
    hi = np.zeros(obs.size, dtype=np.uint64)
    lo = obs.copy()
    reference = TwoWordHashTable(1024, k=k)
    reference.insert_batch(hi, lo, slots)
    table = TwoWordHashTable(1024, k=k, protocol=protocol)
    table.insert_batch(hi, lo, slots)
    assert_identical(reference.to_graph(), table.to_graph())


# -- races: lock-free threaded variant under monitor + scheduler ------------------


class TestLockfreeRaces:
    def test_lockset_clean_one_word(self, rng):
        from repro.checks.instrument import lockset_session

        kmers, slots = observations(rng, n_distinct=60, n_obs=800)
        table = ConcurrentHashTable(1024, k=15, protocol="lockfree")
        with lockset_session() as mon:
            table.insert_threaded(kmers, slots, n_threads=4)
        mon.assert_no_races()
        assert table.stats.key_locks == 0
        reference = ConcurrentHashTable(1024, k=15)
        reference.insert_batch(kmers, slots)
        assert_identical(reference.to_graph(), table.to_graph())

    def test_lockset_clean_two_word(self, rng):
        from repro.checks.instrument import lockset_session

        k = 33
        ints = [int(x) for x in np.unique(
            rng.integers(0, 1 << 60, size=40, dtype=np.uint64))] * 8
        slots = np.zeros(len(ints), dtype=np.int64)
        table = TwoWordHashTable(512, k=k, protocol="lockfree")
        with lockset_session() as mon:
            table.insert_threaded(ints, slots, n_threads=4)
        mon.assert_no_races()
        assert table.stats.key_locks == 0
        hi = np.array([split_int(v, k)[0] for v in ints], dtype=np.uint64)
        lo = np.array([split_int(v, k)[1] for v in ints], dtype=np.uint64)
        reference = TwoWordHashTable(512, k=k)
        reference.insert_batch(hi, lo, slots)
        assert_identical(reference.to_graph(), table.to_graph())

    def test_prepub_gap_blocks_readers_until_publish(self):
        # Adversarial schedule on the real claim→publish gap: park the
        # claim winner after keys_hi (keys_lo unwritten), let a same-key
        # reader probe the slot.  The fixed protocol must spin on the
        # missing PUB bit instead of trusting the torn key; on release
        # exactly one vertex exists.
        from repro.checks.instrument import monitor_session
        from repro.checks.schedule import InterleavingScheduler, _run_threads

        sched = InterleavingScheduler(timeout=15.0)

        def on_gap(s: InterleavingScheduler, point) -> None:
            if s.bump("gap_entered") == 1:
                s.bump("winner_mid_gap")
                s.pause_at("hold")

        sched.on("lf_prepub_gap", on_gap)

        table = TwoWordHashTable(64, k=33, protocol="lockfree")
        locals_ = [HashStats(), HashStats()]
        kmer = (3 << 62) | 0xD0D0F00D

        def winner() -> None:
            table.insert_one_threadsafe(kmer, 0, locals_[0])

        def reader() -> None:
            sched.wait_count("winner_mid_gap", 1)
            t = threading.Thread(
                target=table.insert_one_threadsafe,
                args=(kmer, 0, locals_[1]))
            t.start()
            deadline = time.monotonic() + 10.0
            while (locals_[1].blocked_reads == 0
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            sched.release("hold")
            t.join()

        with monitor_session(sched):
            _run_threads([winner, reader], 15.0)

        assert table.n_occupied == 1
        assert locals_[1].blocked_reads > 0
        row = table.lookup(kmer)
        assert row is not None and int(row[0]) == 2


# -- cross-process harness ---------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_cross_process_matches_serial(rng, protocol):
    from repro.parallel import concurrent_insert_processes

    kmers, slots = observations(rng, n_distinct=100, n_obs=1200)
    serial = ConcurrentHashTable(1024, k=15)
    serial.insert_batch(kmers, slots)
    graph, worker_stats = concurrent_insert_processes(
        kmers, slots, k=15, capacity=1024, n_workers=2, protocol=protocol)
    assert_identical(serial.to_graph(), graph)
    if protocol == "lockfree":
        assert sum(s.key_locks for s in worker_stats) == 0
