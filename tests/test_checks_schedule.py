"""Interleaving scheduler: primitives and deterministic scenarios."""

import threading

import pytest

from repro.checks.schedule import (
    InterleavingScheduler,
    SchedulerTimeout,
    cas_storm_scenario,
    stale_lookup_scenario,
    stress_shared_path,
    writer_pause_scenario,
)
from repro.core.hashtable import ConcurrentHashTable


class TestPrimitives:
    def test_counters(self):
        sched = InterleavingScheduler()
        assert sched.count("c") == 0
        assert sched.bump("c") == 1
        assert sched.bump("c", 2) == 3
        assert sched.count("c") == 3

    def test_gate_release_then_pause_does_not_block(self):
        sched = InterleavingScheduler(timeout=1.0)
        sched.release("g")
        assert sched.is_released("g")
        sched.pause_at("g")  # open gate: returns immediately

    def test_pause_timeout_raises(self):
        sched = InterleavingScheduler(timeout=0.05)
        with pytest.raises(SchedulerTimeout):
            sched.pause_at("never-released")

    def test_wait_count_timeout_raises(self):
        sched = InterleavingScheduler(timeout=0.05)
        with pytest.raises(SchedulerTimeout):
            sched.wait_count("never-bumped", 1)

    def test_wait_count_crosses_threads(self):
        sched = InterleavingScheduler(timeout=5.0)

        def bump_soon():
            sched.bump("ready")

        t = threading.Thread(target=bump_soon)
        t.start()
        sched.wait_count("ready", 1)
        t.join()

    def test_rules_fire_and_history_records(self):
        sched = InterleavingScheduler()
        seen = []
        sched.on("tick", lambda s, p: seen.append((p.name, p.index, p.value)))
        sched.event("tick", 3, "x")
        sched.event("other", 0, None)
        assert seen == [("tick", 3, "x")]
        assert [p.name for p in sched.history] == ["tick", "other"]
        assert len(sched.events("tick")) == 1


class TestCasStorm:
    @pytest.mark.parametrize("n_threads", [2, 4, 8])
    def test_exactly_one_winner(self, n_threads):
        # All contenders barriered at the CAS doorstep on the same EMPTY
        # slot: exactly one wins, the rest lose deterministically.
        table = ConcurrentHashTable(256, k=15)
        result = cas_storm_scenario(table, n_threads=n_threads)
        assert result.stats.cas_failures == n_threads - 1
        assert result.stats.key_locks == 1
        assert table.n_occupied == 1
        assert int(table.lookup(0xCAFE)[0]) == n_threads

    def test_repeatable(self):
        # Determinism claim: same counts on every run.
        for _ in range(3):
            table = ConcurrentHashTable(256, k=15)
            result = cas_storm_scenario(table, n_threads=4)
            assert result.stats.cas_failures == 3


class TestWriterPause:
    def test_blocked_reads_regression(self):
        # Satellite 3 regression: with the writer held between LOCKED
        # and OCCUPIED, readers must (a) record the spins as
        # blocked_reads and (b) all complete once released — the
        # bounded-spin + yield backoff must not livelock.
        table = ConcurrentHashTable(256, k=15)
        result = writer_pause_scenario(table, n_readers=4,
                                       locked_sightings=32)
        assert result.stats.blocked_reads >= 32
        assert result.notes["locked_seen"] >= 32
        # One insert, four updates: every reader finished its op.
        assert result.stats.inserts == 1
        assert result.stats.updates == 4
        assert table.n_occupied == 1
        assert int(table.lookup(0xBEEF)[0]) == 5

    def test_lookup_consistent_after_scenario(self):
        table = ConcurrentHashTable(256, k=15)
        writer_pause_scenario(table, n_readers=2, locked_sightings=8)
        g = table.to_graph()
        assert g.planes[0].size == 1


class TestFixedCodeScenarios:
    def test_stale_lookup_clean_on_fixed_code(self):
        # Without the seeded numpy_publish bug the pause point never
        # fires and the post-update lookup always finds the key.
        table = ConcurrentHashTable(256, k=15)
        result = stale_lookup_scenario(table)
        assert result.lookup_missed is False
        assert int(table.lookup(0xF00D)[0]) == 2

    def test_stress_shared_path_correct_counts(self):
        table = ConcurrentHashTable(2048, k=15)
        stress_shared_path(table, n_distinct=32, n_ops=1024, n_threads=8)
        assert table.stats.ops == 1024
        g = table.to_graph()
        assert int(g.counts.sum()) == 1024
