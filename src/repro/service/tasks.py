"""The work units pool workers execute for the job service.

Service tasks are deliberately *file-based*: a task reads its inputs
from the job directory and writes its outputs back there (atomically,
temp + rename, where a torn file could be mistaken for a finished one).
No shared memory crosses the process boundary — a task description is
a plain picklable dict, and everything a worker produces is durable the
moment the task returns.  That is what makes the service's checkpoints
real: a SIGKILL between two tasks loses *nothing*, and a SIGKILL inside
a task loses only that task.

Task kinds
----------

``step1``  one input piece -> per-partition superkmer spill files.
           The worker loads the reads file, takes its contiguous piece
           (``ReadBatch.split``), runs the MSP kernel, and spills with
           the piece id as the writer id, so file names are
           deterministic and a re-run overwrites a dead attempt's
           partial spills.

``step2``  one merged partition file -> one subgraph ``.phdbg`` file.
           Builds the partition's hash table (one or two key planes by
           k) and saves the subgraph atomically.  ``delay`` sleeps first —
           the fault-injection window tests SIGKILL into.

The merge between the two (spills -> canonical partition files) and the
final subgraph union run in the *parent* (they are cheap, sequential
file folds); see :mod:`repro.service.runner`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from ..core.estimator import SizingPolicy
from ..core.subgraph import build_subgraph
from ..dna.io import load_read_batch
from ..graph.serialize import save_graph
from ..msp.partitioner import SpillWriterSet, load_partition_group, partition_reads


class TaskFailed(RuntimeError):
    """A task raised; carries the task description for attribution."""


def atomic_replace(tmp: Path, final: Path) -> None:
    """Publish a finished artifact: readers see nothing or all of it."""
    os.replace(tmp, final)


def run_task(task: dict) -> dict:
    """Execute one task description; returns its result document."""
    kind = task.get("kind")
    if kind == "step1":
        return _run_step1(task)
    if kind == "step2":
        return _run_step2(task)
    raise TaskFailed(f"unknown task kind {kind!r}")


def _run_step1(task: dict) -> dict:
    reads = load_read_batch(task["input"])
    pieces = reads.split(int(task["n_pieces"]))
    piece_id = int(task["piece"])
    k, p = int(task["k"]), int(task["p"])
    n_partitions = int(task["n_partitions"])
    writer = SpillWriterSet(task["spill_dir"], piece_id, k, n_partitions)
    if piece_id < len(pieces):  # split() may return fewer pieces than asked
        result = partition_reads(pieces[piece_id], k, p, n_partitions)
        writer.write_result(result)
        n_reads = pieces[piece_id].n_reads
        n_superkmers = sum(b.n_superkmers for b in result.blocks)
    else:
        n_reads = 0
        n_superkmers = 0
    spills = writer.close()
    return {
        "kind": "step1",
        "piece": piece_id,
        "n_reads": int(n_reads),
        "n_superkmers": int(n_superkmers),
        "spills": {int(part): str(path) for part, path in spills.items()},
    }


def _run_step2(task: dict) -> dict:
    delay = float(task.get("delay", 0.0))
    if delay > 0:
        # Fault-injection window: a SIGKILL landing here leaves the
        # partition unfinished (no manifest, no subgraph file) and a
        # resume re-runs exactly this partition.
        time.sleep(delay)
    k = int(task["k"])
    partition = int(task["partition"])
    block = load_partition_group([Path(task["partition_file"])], k)
    policy = SizingPolicy(lam=float(task.get("lam", 2.0)),
                          alpha=float(task.get("alpha", 0.7)))
    preaggregate = bool(task.get("preaggregate", False))
    out_path = Path(task["out_path"])
    built = build_subgraph(block, policy, preaggregate=preaggregate)
    tmp = out_path.with_name(out_path.name + ".tmp")
    n_bytes = save_graph(tmp, built.graph)
    atomic_replace(tmp, out_path)
    return {
        "kind": "step2",
        "partition": partition,
        "path": str(out_path),
        "bytes": int(n_bytes),
        "n_vertices": int(built.graph.n_vertices),
        "n_kmers": int(built.stats.ops),
    }
