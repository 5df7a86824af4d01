"""The checkpointed stage graph that executes one job.

The pipeline phases of :class:`repro.core.parahash.ParaHash` are recast
as a DAG of manifest-guarded stages over the job directory::

    step1_t0000 ... step1_t{N}    one per input piece   (pool tasks)
              \\   |   /
               merge              spills -> canonical partitions (parent)
              /   |   \\
    step2_p0000 ... step2_p{P}    one per partition     (pool tasks)
              \\   |   /
               finalize           subgraph union -> graph.phdbg (parent)

Before running a stage the runner asks its manifest: *same params, same
input digests, outputs intact?*  If yes the stage is **skipped** and
its recorded outputs feed the next stage; if no it re-runs.  Because
Step-2 manifests are written per partition *as each completion event
arrives* (the session's ``on_done`` hook), a run killed mid-Step-2
resumes from the last finished partition — re-running only the
unfinished ones — instead of from the top.

The runner never talks to shared memory: pool tasks read and write job
files (see :mod:`repro.service.tasks`), so every checkpoint is durable
the instant its manifest lands.
"""

from __future__ import annotations

import time
from pathlib import Path

from .jobstore import JobRecord
from .manifest import Artifact, StageManifest, file_digest, fresh_manifest
from .pool import LaneSession, SessionCancelled
from .tasks import atomic_replace, run_task


class JobFailed(RuntimeError):
    """The job could not be completed; status.json has the detail."""


def _stage_is_valid(record: JobRecord, stage: str, params: dict,
                    inputs: dict) -> tuple[StageManifest | None, str]:
    """Load + validate one stage manifest against the current run."""
    manifest = StageManifest.load(record.manifest_path(stage))
    if manifest is None:
        return None, "no manifest"
    ok, reason = manifest.validate(params, inputs, record.job_dir)
    return (manifest, reason) if ok else (None, reason)


def _execute(tasks: list[dict], session: LaneSession | None,
             on_done, stall_timeout: float) -> None:
    """Run tasks through the pool session, or inline when there is none.

    The inline path (``repro resume`` without a running service, unit
    tests) executes the very same task functions in-process, so both
    paths produce identical artifacts and manifests.
    """
    if not tasks:
        return
    if session is None:
        for task in tasks:
            on_done(None, run_task(task))
        return
    session.submit(tasks)
    session.wait(stall_timeout=stall_timeout, on_done=on_done)


def run_job(record: JobRecord, session: LaneSession | None = None,
            stall_timeout: float = 600.0) -> Path:
    """Drive one job through all stages; returns the final graph path.

    Idempotent by construction: call it on a fresh job, a finished job
    (every stage skips), or the remains of a SIGKILLed one (finished
    stages skip, the rest re-run).  Status transitions land in
    ``status.json``; the manifests remain the authoritative record.
    """
    spec = record.spec
    started = time.time()
    record.set_state("running", stage="step1", error=None)
    try:
        input_digest = file_digest(spec.input)

        # -- Step 1: input pieces -> per-piece spill files ------------------------
        step1_manifests: dict[int, StageManifest] = {}
        pending: list[dict] = []
        for piece in range(spec.n_step1_tasks):
            stage = f"step1_t{piece:04d}"
            params = {
                "k": spec.k, "p": spec.p,
                "n_partitions": spec.n_partitions,
                "n_pieces": spec.n_step1_tasks, "piece": piece,
            }
            inputs = {"reads": input_digest}
            manifest, reason = _stage_is_valid(record, stage, params, inputs)
            if manifest is not None:
                step1_manifests[piece] = manifest
                continue
            pending.append({
                "kind": "step1", "input": spec.input, "piece": piece,
                "n_pieces": spec.n_step1_tasks, "k": spec.k, "p": spec.p,
                "n_partitions": spec.n_partitions,
                "spill_dir": str(record.spill_dir),
            })

        def step1_done(_task_id, result) -> None:
            piece = int(result["piece"])
            stage = f"step1_t{piece:04d}"
            params = {
                "k": spec.k, "p": spec.p,
                "n_partitions": spec.n_partitions,
                "n_pieces": spec.n_step1_tasks, "piece": piece,
            }
            outputs = tuple(
                Artifact.of(path, record.job_dir)
                for _, path in sorted(result["spills"].items())
            )
            manifest = fresh_manifest(
                stage, params, {"reads": input_digest}, outputs,
                stats={
                    "n_reads": result["n_reads"],
                    "n_superkmers": result["n_superkmers"],
                    "spills": {
                        str(part): str(Path(path).name)
                        for part, path in result["spills"].items()
                    },
                },
            )
            manifest.save(record.manifest_path(stage))
            step1_manifests[piece] = manifest
            record.write_status(
                stage="step1",
                step1_done=len(step1_manifests),
                step1_total=spec.n_step1_tasks,
            )

        _execute(pending, session, step1_done, stall_timeout)

        # -- merge: spills -> canonical partition files ---------------------------
        record.write_status(stage="merge")
        spill_paths: list[dict[int, Path]] = []
        for piece in sorted(step1_manifests):
            stats = step1_manifests[piece].stats
            spill_paths.append({
                int(part): record.spill_dir / name
                for part, name in stats.get("spills", {}).items()
            })
        merge_inputs = {
            f"spill:{path.name}": file_digest(path)
            for per_piece in spill_paths for path in per_piece.values()
        }
        merge_params = {"k": spec.k, "n_partitions": spec.n_partitions}
        manifest, _ = _stage_is_valid(record, "merge", merge_params,
                                      merge_inputs)
        if manifest is None:
            from ..msp.partitioner import merge_spill_files, spill_groups
            groups = spill_groups(spill_paths, spec.n_partitions)
            merged = merge_spill_files(groups, record.partition_dir, spec.k)
            manifest = fresh_manifest(
                "merge", merge_params, merge_inputs,
                tuple(Artifact.of(p, record.job_dir) for p in merged),
            )
            manifest.save(record.manifest_path("merge"))
        partition_files = [
            record.job_dir / artifact.path for artifact in manifest.outputs
        ]

        # -- Step 2: one subgraph per partition, checkpointed each ---------------
        record.write_status(stage="step2", step2_done=0,
                            step2_total=len(partition_files))
        step2_params = {
            "k": spec.k, "lam": spec.lam, "alpha": spec.alpha,
            "preaggregate": spec.preaggregate,
        }
        partition_digests = {
            part: file_digest(path)
            for part, path in enumerate(partition_files)
        }
        subgraph_paths: dict[int, Path] = {}
        n_skipped = 0
        pending = []
        for part, path in enumerate(partition_files):
            stage = f"step2_p{part:04d}"
            inputs = {"partition": partition_digests[part]}
            manifest, _ = _stage_is_valid(record, stage, step2_params, inputs)
            if manifest is not None:
                subgraph_paths[part] = record.job_dir / manifest.outputs[0].path
                n_skipped += 1
                continue
            pending.append({
                "kind": "step2", "partition": part,
                "partition_file": str(path),
                "out_path": str(record.subgraph_dir
                                / f"subgraph_{part:04d}.phdbg"),
                "k": spec.k, "lam": spec.lam, "alpha": spec.alpha,
                "preaggregate": spec.preaggregate,
                "delay": spec.step2_delay,
            })

        def step2_done(_task_id, result) -> None:
            part = int(result["partition"])
            stage = f"step2_p{part:04d}"
            out_path = Path(result["path"])
            manifest = fresh_manifest(
                stage, step2_params,
                {"partition": partition_digests[part]},
                (Artifact.of(out_path, record.job_dir),),
                stats={"n_vertices": result["n_vertices"],
                       "n_kmers": result["n_kmers"]},
            )
            manifest.save(record.manifest_path(stage))
            subgraph_paths[part] = out_path
            record.write_status(
                stage="step2",
                step2_done=len(subgraph_paths) - n_skipped,
                step2_skipped=n_skipped,
                step2_total=len(partition_files),
            )

        _execute(pending, session, step2_done, stall_timeout)

        # -- finalize: subgraph union -> graph.phdbg ------------------------------
        record.write_status(stage="finalize")
        final_inputs = {
            f"subgraph:{subgraph_paths[part].name}":
                file_digest(subgraph_paths[part])
            for part in sorted(subgraph_paths)
        }
        final_params = {"k": spec.k, "n_partitions": spec.n_partitions}
        manifest, _ = _stage_is_valid(record, "finalize", final_params,
                                      final_inputs)
        if manifest is None:
            ordered = [subgraph_paths[p] for p in sorted(subgraph_paths)]
            n_bytes = _merge_and_save(ordered, spec.k, record.graph_path)
            manifest = fresh_manifest(
                "finalize", final_params, final_inputs,
                (Artifact.of(record.graph_path, record.job_dir,
                             digest=True),),
                stats={"bytes": n_bytes},
            )
            manifest.save(record.manifest_path("finalize"))
        record.set_state(
            "done", stage="finalize",
            graph=str(record.graph_path),
            elapsed_seconds=round(time.time() - started, 3),
        )
        return record.graph_path
    except SessionCancelled:
        record.set_state("cancelled", error=None)
        raise
    except Exception as exc:
        record.set_state("failed", error=f"{type(exc).__name__}: {exc}")
        raise JobFailed(f"job {record.job_id} failed: {exc}") from exc


def _merge_and_save(subgraph_files: list[Path], k: int,
                    graph_path: Path) -> int:
    """Union the per-partition subgraphs and publish the final graph."""
    from ..graph.merge import merge_disjoint
    from ..graph.serialize import load_subgraphs, save_graph

    tmp = graph_path.with_name(graph_path.name + ".tmp")
    merged = merge_disjoint(load_subgraphs(subgraph_files), k=k)
    n_bytes = save_graph(tmp, merged)
    atomic_replace(tmp, graph_path)
    return n_bytes
