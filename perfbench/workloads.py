"""Benchmark workloads: a read profile plus the build configuration.

Each workload names a synthetic read profile (from :mod:`repro.dna.simulate`)
and the :class:`repro.core.config.ParaHashConfig` fields of the build.  The
benchmark seed is mixed with the profile's index so that one seed yields a
distinct but reproducible read set per profile; the build itself only ever
sees the FASTQ written from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ReadProfile:
    """Arguments of a :class:`repro.dna.simulate.DatasetProfile`."""

    name: str
    index: int  # mixed into the seed, so profiles never share reads
    genome_size: int
    read_length: int
    coverage: float
    mean_errors: float


# The chr14 profile repeats repro.dna.simulate.HUMAN_CHR14_LIKE; it is
# written out here so that the benchmark's input cannot drift with it.
CHR14 = ReadProfile("human_chr14_like", 0, genome_size=100_000,
                    read_length=101, coverage=42.0, mean_errors=0.6)
LOWCOV = ReadProfile("lowcov", 1, genome_size=400_000, read_length=101,
                     coverage=6.0, mean_errors=2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: ReadProfile
    k: int
    backend: str
    n_workers: int = 1
    disk_step1: bool = False  # pass a workdir, so Step 1 spills to disk
    p: int = 11
    n_partitions: int = 32

    @property
    def bigk(self) -> bool:
        return self.k > 31

    def parahash_config(self):
        from repro.core.config import ParaHashConfig

        return ParaHashConfig(k=self.k, p=self.p,
                              n_partitions=self.n_partitions,
                              backend=self.backend, n_workers=self.n_workers)

    def entry_modules(self) -> list[str]:
        """Modules a build of this workload imports before it starts."""
        mods = ["repro.cli"]
        if self.backend == "processes":
            mods.append("repro.parallel.backend")
        if self.bigk:
            mods.append("repro.bigk")
        return mods

    def describe(self) -> dict:
        return {
            "profile": self.profile.name,
            "genome_size": self.profile.genome_size,
            "read_length": self.profile.read_length,
            "coverage": self.profile.coverage,
            "mean_errors": self.profile.mean_errors,
            "k": self.k, "p": self.p, "n_partitions": self.n_partitions,
            "backend": self.backend, "n_workers": self.n_workers,
            "disk_step1": self.disk_step1,
        }


WORKLOADS = {w.name: w for w in (
    Workload("chr14_k27_serial",
             "single-process baseline: MSP, packing, pre-aggregation and "
             "insert do all the work; no parallel layer runs",
             CHR14, k=27, backend="serial", disk_step1=True),
    Workload("chr14_k27_procs2",
             "same kernels split over 2 worker processes: adds the pool, shm "
             "tables, spill merge and work queue",
             CHR14, k=27, backend="processes", n_workers=2),
    Workload("chr14_k45_procs2",
             "the only workload on the two-word (bigk) kernels, "
             "TwoWordHashTable and two-word shm segments",
             CHR14, k=45, backend="processes", n_workers=2),
    Workload("lowcov_k27_serial",
             "low-duplication reads: most inserts claim a new key, so insert "
             "outranks pre-aggregation",
             LOWCOV, k=27, backend="serial", disk_step1=True),
)}


def profile_seed(seed: int, profile: ReadProfile) -> int:
    """The simulator seed of ``profile`` under benchmark seed ``seed``."""
    import numpy as np

    state = np.random.SeedSequence([seed, profile.index]).generate_state(1)
    return int(state[0])


def make_reads(profile: ReadProfile, seed: int):
    """Generate the profile's reads deterministically from ``seed``."""
    from repro.dna.simulate import DatasetProfile

    return DatasetProfile(
        name=profile.name, genome_size=profile.genome_size,
        read_length=profile.read_length, coverage=profile.coverage,
        mean_errors=profile.mean_errors, seed=profile_seed(seed, profile),
    ).generate_reads()


def write_fastq(reads, path: Path) -> int:
    """Write ``reads`` as FASTQ; returns the file size in bytes."""
    from repro.dna.io import save_read_batch

    save_read_batch(path, reads, fmt="fastq")
    return path.stat().st_size
