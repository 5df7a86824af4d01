"""Tests for repro.concurrentsub.hashfunc."""

import numpy as np
import pytest

from repro.concurrentsub.hashfunc import (
    hash_planes,
    hash_planes_int,
    hash_words,
    mix64,
    mix64_int,
    partition_ids,
    table_slots,
)


class TestMix64:
    def test_scalar_matches_vectorized(self, rng):
        values = rng.integers(0, 1 << 63, size=200, dtype=np.uint64)
        mixed = mix64(values)
        for i in range(0, 200, 13):
            assert int(mixed[i]) == mix64_int(int(values[i]))

    def test_deterministic(self):
        assert mix64_int(12345) == mix64_int(12345)

    def test_bijective_on_sample(self, rng):
        values = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
        mixed = mix64(np.unique(values))
        assert np.unique(mixed).size == np.unique(values).size

    def test_avalanche(self):
        # Flipping one input bit should flip ~half the output bits.
        a = mix64_int(0x1234_5678_9ABC_DEF0)
        b = mix64_int(0x1234_5678_9ABC_DEF1)
        flipped = bin(a ^ b).count("1")
        assert 20 <= flipped <= 44

    def test_zero_input(self):
        assert mix64_int(0) == 0  # splitmix64 finalizer maps 0 -> 0

    def test_does_not_mutate_input(self):
        values = np.arange(10, dtype=np.uint64)
        copy = values.copy()
        mix64(values)
        assert np.array_equal(values, copy)


class TestHashPlanes:
    def test_one_plane_is_mix64(self, rng):
        # W = 1 keeps the one-word probe order: the fold is plain mix64.
        values = rng.integers(0, 1 << 63, size=1000, dtype=np.uint64)
        assert np.array_equal(hash_planes(values), mix64(values))
        for i in range(0, 1000, 97):
            assert hash_planes_int(int(values[i])) == mix64_int(int(values[i]))

    def test_two_planes_fold(self, rng):
        hi = rng.integers(0, 1 << 62, size=1000, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=1000, dtype=np.uint64)
        golden = 0x9E3779B97F4A7C15
        mixed = hash_planes(hi, lo)
        for i in range(0, 1000, 97):
            h, l = int(hi[i]), int(lo[i])
            expected = mix64_int(l ^ ((mix64_int(h) + golden) % 2**64))
            assert hash_planes_int(h, l) == expected == int(mixed[i])


class TestHashWords:
    def test_multiword_differs_from_singleword(self):
        assert hash_words([1, 2]) != hash_words([2, 1])
        assert hash_words([0, 5]) != hash_words([5])

    def test_deterministic(self):
        assert hash_words([7, 8, 9]) == hash_words([7, 8, 9])

    def test_fits_64_bits(self):
        assert 0 <= hash_words([2**64 - 1, 2**64 - 1]) < 2**64


class TestPartitionIds:
    def test_range(self, rng):
        minis = rng.integers(0, 1 << 40, size=1000, dtype=np.uint64)
        pids = partition_ids(minis, 32)
        assert pids.min() >= 0 and pids.max() < 32

    def test_uniformity(self, rng):
        minis = np.unique(rng.integers(0, 1 << 40, size=50_000, dtype=np.uint64))
        pids = partition_ids(minis, 16)
        counts = np.bincount(pids, minlength=16)
        # Should be within a few percent of uniform.
        expected = minis.size / 16
        assert counts.min() > 0.9 * expected
        assert counts.max() < 1.1 * expected

    def test_stability(self, rng):
        minis = rng.integers(0, 1 << 40, size=100, dtype=np.uint64)
        assert np.array_equal(partition_ids(minis, 7), partition_ids(minis, 7))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            partition_ids(np.zeros(3, dtype=np.uint64), 0)


class TestTableSlots:
    def test_range(self, rng):
        kmers = rng.integers(0, 1 << 54, size=100, dtype=np.uint64)
        slots = table_slots(kmers, 256)
        assert slots.min() >= 0 and slots.max() < 256

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            table_slots(np.zeros(3, dtype=np.uint64), 100)
        with pytest.raises(ValueError):
            table_slots(np.zeros(3, dtype=np.uint64), 0)
