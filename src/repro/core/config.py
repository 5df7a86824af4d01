"""ParaHash run configuration.

Defaults follow the paper's experimental setup (§V-A/V-B): K = 27,
minimizer length P = 11 for medium inputs (19 for the big dataset),
λ = 2 and α ∈ [0.5, 0.8] for table sizing, and a partition count that
keeps each hash table comfortably small.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import ClassVar

from ..dna.kmer import key_planes
from .estimator import SizingPolicy

#: Execution backends of :meth:`repro.core.parahash.ParaHash.build_graph`.
BACKENDS = ("serial", "threads", "processes")


@dataclass(frozen=True)
class ParaHashConfig:
    """Parameters of a ParaHash run.

    Attributes
    ----------
    k:
        Kmer length (vertex size).  The paper uses 27 for both datasets.
        ``k <= 31`` packs into one word; ``33 <= k <= 63`` uses the
        split-key two-word substrate (:mod:`repro.bigk`).  ``k = 32`` is
        rejected (see :func:`repro.dna.kmer.key_planes`).
    p:
        Minimizer length; larger P balances partitions better but
        fragments superkmers (Fig 6).  Must satisfy ``1 <= p <= k``,
        and ``p <= 31`` always — minimizers stay one-word even for
        big k (superkmer decomposition only looks at P-length
        substrings).
    n_partitions:
        Number of superkmer partitions (and subgraphs).  The paper uses
        512 for gigabyte-scale inputs, 960 for 100 GB+.
    n_input_pieces:
        How many equal pieces Step 1 splits the input into (pipeline
        granularity).
    sizing:
        Hash-table sizing policy (Property 1 parameters λ and α).
    backend:
        Execution backend for the end-to-end driver: ``"serial"`` (one
        process, vectorized kernels), ``"threads"`` (both steps
        co-processed through the §III-E work-stealing queue across
        ``n_workers`` threads), or ``"processes"`` (worker processes over
        shared memory, Step 1 streaming into Step 2 with no barrier —
        see :mod:`repro.parallel.backend`).
    n_workers:
        Worker count for the ``threads``/``processes`` backends;
        0 means auto (the machine's CPU count).
    preaggregate:
        Collapse duplicate ``(vertex, slot)`` observations into counted
        inserts before touching a hash table (one probe walk per
        distinct pair; stats stay protocol-equivalent).
    """

    k: int = 27
    p: int = 11
    n_partitions: int = 32
    n_input_pieces: int = 4
    sizing: SizingPolicy = field(default_factory=SizingPolicy)
    backend: str = "serial"
    n_workers: int = 0
    preaggregate: bool = True

    #: Not a field: every build inserts each partition from one owner
    #: with the paper's state-transfer protocol.  The benchmark's traced
    #: replay reads it to construct its tables the way a build does.
    insert_protocol: ClassVar[str] = "locked"

    def __post_init__(self) -> None:
        key_planes(self.k)  # 1..31 or 33..63, named in the error
        if not 1 <= self.p <= self.k:
            raise ValueError(f"need 1 <= p <= k, got p={self.p}, k={self.k}")
        if self.p > 31:
            raise ValueError("minimizer length p must be <= 31 (one word)")
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if self.n_input_pieces < 1:
            raise ValueError("n_input_pieces must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = auto)")

    def workers(self) -> int:
        """Resolved worker count for the parallel backends (>= 1)."""
        if self.n_workers > 0:
            return self.n_workers
        return max(1, os.cpu_count() or 1)

    def coprocessing_threads(self) -> int:
        """Threads that co-process the in-process steps (>= 1).

        ``workers()`` for the ``threads`` backend, otherwise 1: the
        serial backend runs one thread and the processes backend does
        its own fan-out.
        """
        return self.workers() if self.backend == "threads" else 1

    def with_(self, **changes) -> "ParaHashConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


#: Paper defaults for a medium dataset (Human Chr14 class).
MEDIUM_GENOME_CONFIG = ParaHashConfig(k=27, p=11, n_partitions=32)

#: Paper defaults for a big dataset (Bumblebee class).
BIG_GENOME_CONFIG = ParaHashConfig(k=27, p=19, n_partitions=64)
