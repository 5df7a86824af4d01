"""On-disk job state: specs, status, and the per-job directory layout.

A *job* is one graph build owned by the service.  Everything the job
ever learns lives under one directory, so a job survives any process
death and can be resumed, inspected, or garbage-collected by path
alone::

    <root>/jobs/<job-id>/
        job.json          # the immutable JobSpec the job was submitted with
        status.json       # mutable: state machine + progress + error text
        manifests/        # one StageManifest per finished stage/partition
        spill/            # Step 1 per-task superkmer spill files (.phsk)
        partitions/       # merged canonical partition files (.phsk)
        subgraphs/        # per-partition graph files (.phdbg)
        graph.phdbg       # the final merged De Bruijn graph

``job.json`` is written once at submit and never mutated — a resume
re-reads it and must reproduce the identical stage parameters, which is
what makes manifest validation meaningful.  ``status.json`` is advisory
(progress reporting); the *authoritative* completion evidence is the
manifests, so a stale status after SIGKILL cannot confuse a resume.
"""

from __future__ import annotations

import os
import secrets
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from ..dna.kmer import key_planes
from ..util.bytesize import human2bytes
from .manifest import read_json, write_json_atomic

#: Job lifecycle states.  ``queued -> running -> done|failed|cancelled``;
#: a crashed/killed job is found as ``running`` with a dead owner and is
#: resumable.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Keys older ``job.json`` files carry for hash-table options that no
#: longer exist.  Every value they could hold built the same graph, so
#: :meth:`JobStore.load` drops them and the job stays resumable.
#: Submitted specs still reject them as unknown fields.
RETIRED_SPEC_KEYS = ("table_layout", "insert_protocol", "n_shards")


class JobError(ValueError):
    """A malformed job spec or an operation on a missing job."""


@dataclass(frozen=True)
class JobSpec:
    """The immutable description of one graph build.

    ``claim_weight`` is the multi-tenancy QoS knob: a pool worker
    visiting this job's lane claims up to this many tasks per visit, so
    relative weights set relative throughput when jobs compete for the
    shared pool (the weighted-claim scheme of the process work queue).

    ``step2_delay`` stretches each Step-2 partition build by sleeping
    that many seconds first — a fault-injection knob so tests (and
    demos) can reliably SIGKILL a run *mid-Step-2* and exercise resume.
    """

    input: str
    k: int = 15
    p: int = 4
    n_partitions: int = 8
    n_step1_tasks: int = 2
    preaggregate: bool = False
    claim_weight: int = 1
    max_memory: int = 0  # bytes; 0 = unlimited
    step2_delay: float = 0.0
    lam: float = 2.0
    alpha: float = 0.7

    def __post_init__(self) -> None:
        try:
            key_planes(self.k)
        except ValueError as exc:
            raise JobError(str(exc)) from None
        if not 1 <= self.p <= self.k:
            raise JobError(f"need 1 <= p <= k, got p={self.p}, k={self.k}")
        if self.n_partitions < 1:
            raise JobError("n_partitions must be >= 1")
        if self.n_step1_tasks < 1:
            raise JobError("n_step1_tasks must be >= 1")
        if self.claim_weight < 1:
            raise JobError("claim_weight must be >= 1")
        if self.step2_delay < 0:
            raise JobError("step2_delay must be >= 0")
        if self.max_memory < 0:
            raise JobError("max_memory must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Build a spec from submitted JSON, tolerating human-readable
        sizes (``"max_memory": "4G"``) and unknown keys (rejected)."""
        if not isinstance(d, dict):
            raise JobError(f"job spec must be an object, got {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(d) - known)
        if unknown:
            raise JobError(f"unknown job spec fields: {', '.join(unknown)}")
        if "input" not in d:
            raise JobError("job spec requires 'input'")
        kwargs = dict(d)
        if "max_memory" in kwargs:
            try:
                kwargs["max_memory"] = human2bytes(kwargs["max_memory"])
            except (ValueError, TypeError) as exc:
                raise JobError(f"bad max_memory: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise JobError(f"bad job spec: {exc}") from exc

    def with_weight(self, claim_weight: int) -> "JobSpec":
        return replace(self, claim_weight=claim_weight)


def new_job_id() -> str:
    """Sortable-by-creation, collision-resistant job id."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{secrets.token_hex(3)}"


class JobRecord:
    """Handle over one job directory: spec (immutable) + status (mutable).

    Status writes go through :func:`write_json_atomic`, so observers
    (the HTTP API, ``repro jobs``) always parse a complete document.
    """

    def __init__(self, job_id: str, job_dir: Path, spec: JobSpec) -> None:
        self.job_id = job_id
        self.job_dir = Path(job_dir)
        self.spec = spec

    # -- layout ------------------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        return self.job_dir / "job.json"

    @property
    def status_path(self) -> Path:
        return self.job_dir / "status.json"

    @property
    def manifest_dir(self) -> Path:
        return self.job_dir / "manifests"

    @property
    def spill_dir(self) -> Path:
        return self.job_dir / "spill"

    @property
    def partition_dir(self) -> Path:
        return self.job_dir / "partitions"

    @property
    def subgraph_dir(self) -> Path:
        return self.job_dir / "subgraphs"

    @property
    def graph_path(self) -> Path:
        return self.job_dir / "graph.phdbg"

    def manifest_path(self, stage: str) -> Path:
        return self.manifest_dir / f"{stage}.json"

    # -- status ------------------------------------------------------------------

    def read_status(self) -> dict:
        status = read_json(self.status_path)
        if not isinstance(status, dict):
            # Missing/corrupt status is recoverable: the manifests are
            # the durable truth, status is just reporting.
            status = {"status": "queued", "created": 0.0}
        return status

    def write_status(self, **updates) -> dict:
        """Merge ``updates`` into status.json; returns the new document."""
        status = self.read_status()
        status.update(updates)
        status["updated"] = time.time()
        write_json_atomic(self.status_path, status)
        return status

    def set_state(self, state: str, **extra) -> dict:
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        return self.write_status(status=state, **extra)

    @property
    def status(self) -> str:
        return str(self.read_status().get("status", "queued"))

    def describe(self) -> dict:
        """The API/CLI view: id + spec + current status document."""
        doc = self.read_status()
        doc["id"] = self.job_id
        doc["spec"] = self.spec.to_dict()
        return doc


class JobStore:
    """The collection of job directories under one service root."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    def create(self, spec: JobSpec) -> JobRecord:
        """Allocate a job directory and persist the spec (once, ever)."""
        job_id = new_job_id()
        job_dir = self.jobs_dir / job_id
        while job_dir.exists():  # pragma: no cover - 24-bit collision
            job_id = new_job_id()
            job_dir = self.jobs_dir / job_id
        for sub in ("manifests", "spill", "partitions", "subgraphs"):
            (job_dir / sub).mkdir(parents=True, exist_ok=True)
        record = JobRecord(job_id, job_dir, spec)
        write_json_atomic(record.spec_path, spec.to_dict())
        record.write_status(status="queued", created=time.time(),
                            claim_weight=spec.claim_weight)
        return record

    def load(self, job_id: str) -> JobRecord:
        job_dir = self.jobs_dir / job_id
        spec_doc = read_json(job_dir / "job.json")
        if spec_doc is None:
            raise JobError(f"no such job: {job_id}")
        if isinstance(spec_doc, dict):
            for key in RETIRED_SPEC_KEYS:
                spec_doc.pop(key, None)
        return JobRecord(job_id, job_dir, JobSpec.from_dict(spec_doc))

    def list_jobs(self) -> list[JobRecord]:
        records = []
        for job_dir in sorted(self.jobs_dir.iterdir()):
            if (job_dir / "job.json").is_file():
                records.append(self.load(job_dir.name))
        return records
