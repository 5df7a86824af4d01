"""Serial vs process-backend end-to-end build (the PR's perf gate).

Times the full two-step workflow (`ParaHash.build_graph`) with the
``serial`` backend and with the ``processes`` backend at several worker
counts, verifies every parallel graph is bit-identical to the serial
one, and writes a machine-readable ``BENCH_parallel.json`` that CI
uploads as an artifact and gates on.

Standalone usage (what the ``bench-smoke`` CI job runs)::

    python benchmarks/bench_parallel_backend.py --smoke \
        --output BENCH_parallel.json --check benchmarks/baselines.json

``--k 45`` (any k > 31) switches to the two-word big-k sweep: a smaller
input (two-word tables double the key traffic), ``bigk_processes``
baselines entry, ``BENCH_bigk.json`` artifact::

    python benchmarks/bench_parallel_backend.py --smoke --k 45 \
        --output BENCH_bigk.json --check benchmarks/baselines.json

``--check`` compares the measured speedup at the baseline's worker
count against a **core-count-aware** threshold::

    threshold = min_speedup                      if cpu_count >= workers
    threshold = min_speedup_per_core * cpu_count otherwise

On a multi-core CI runner this enforces the full ``min_speedup`` (2x at
4 workers); on a constrained machine (e.g. a 1-core container, where no
amount of process parallelism can beat serial) it degrades to bounding
the backend's *overhead* instead of failing vacuously.

As a pytest benchmark (nightly suite) the same measurement runs under
``pytest-benchmark``; the speedup assertion applies only when the
machine has enough cores for it to be meaningful.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Allow running the file directly from a source checkout.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.simulate import HUMAN_CHR14_LIKE

#: Worker counts swept per mode.
SMOKE_WORKERS = [1, 2, 4]
FULL_WORKERS = [1, 2, 4, 8]

#: Dataset scale per mode (fraction of the chr14-like profile).
SMOKE_SCALE = 1.0
FULL_SCALE = 4.0


#: Dataset scale for the big-k (k > 31) sweep: two-word tables double
#: the key traffic, so the gate runs on a smaller input to stay within
#: the CI smoke budget (still large enough to amortize process spawn).
BIGK_SCALE = 0.5


def _graphs_equal(a, b) -> bool:
    return a.equals(b)


def _time_build(config: ParaHashConfig, reads, repeats: int):
    """Best-of-``repeats`` wall time; returns (seconds, graph)."""
    best = float("inf")
    graph = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = ParaHash(config).build_graph(reads)
        best = min(best, time.perf_counter() - t0)
        graph = result.graph
    return best, graph


def measure(smoke: bool = True, repeats: int = 2,
            workers: list[int] | None = None, k: int = 27) -> dict:
    """Run the sweep and return the BENCH_parallel.json payload.

    With ``k > 31`` the sweep exercises the two-word shm tables on a
    smaller input (``BIGK_SCALE``) and reports under the
    ``bigk_processes`` benchmark name.
    """
    bigk = k > 31
    scale = BIGK_SCALE if bigk else (SMOKE_SCALE if smoke else FULL_SCALE)
    workers = workers or (SMOKE_WORKERS if smoke else FULL_WORKERS)
    profile = HUMAN_CHR14_LIKE.scaled(scale)
    reads = profile.generate_reads()
    if bigk:
        config = ParaHashConfig(k=k, p=15, n_partitions=16, n_input_pieces=8)
    else:
        config = ParaHashConfig(k=k, p=11, n_partitions=32, n_input_pieces=8)

    serial_seconds, serial_graph = _time_build(config, reads, repeats)
    runs = []
    for w in workers:
        cfg = config.with_(backend="processes", n_workers=w)
        seconds, graph = _time_build(cfg, reads, repeats)
        if not _graphs_equal(graph, serial_graph):
            raise AssertionError(
                f"process backend with {w} workers produced a different "
                f"graph than the serial backend"
            )
        runs.append({
            "workers": w,
            "seconds": round(seconds, 4),
            "speedup": round(serial_seconds / seconds, 4),
        })
    return {
        "benchmark": "bigk_processes" if bigk else "parallel_backend",
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count() or 1,
        "dataset": {
            "profile": profile.name,
            "genome_size": profile.genome_size,
            "n_reads": reads.n_reads,
            "read_length": reads.read_length,
        },
        "config": {
            "k": config.k,
            "p": config.p,
            "n_partitions": config.n_partitions,
        },
        "repeats": repeats,
        "serial_seconds": round(serial_seconds, 4),
        "runs": runs,
        "graphs_identical": True,
        "n_vertices": int(serial_graph.n_vertices),
    }


def check_against_baseline(report: dict, baseline_path: str | Path) -> list[str]:
    """Gate the report against ``benchmarks/baselines.json``.

    Returns a list of violations (empty = pass).  See the module
    docstring for the core-count-aware threshold formula.
    """
    baselines = json.loads(Path(baseline_path).read_text())
    spec = baselines[report["benchmark"]]
    gate_workers = int(spec["workers"])
    by_workers = {run["workers"]: run for run in report["runs"]}
    violations: list[str] = []
    if gate_workers not in by_workers:
        return [f"no run at the gated worker count ({gate_workers})"]
    cores = int(report.get("cpu_count") or 1)
    if cores >= gate_workers:
        threshold = float(spec["min_speedup"])
    else:
        threshold = float(spec["min_speedup_per_core"]) * cores
    speedup = by_workers[gate_workers]["speedup"]
    if speedup < threshold:
        violations.append(
            f"speedup at {gate_workers} workers is {speedup:.2f}x, below "
            f"the threshold {threshold:.2f}x "
            f"(min_speedup={spec['min_speedup']}, "
            f"min_speedup_per_core={spec['min_speedup_per_core']}, "
            f"cpu_count={cores})"
        )
    if not report.get("graphs_identical"):
        violations.append("parallel graphs were not identical to serial")
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serial vs process-backend build benchmark"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small dataset + short sweep (the CI gate)")
    parser.add_argument("--k", type=int, default=27,
                        help="kmer length; k > 31 runs the two-word "
                             "(big-k) sweep on a smaller input")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats (best-of)")
    parser.add_argument("--output", default="BENCH_parallel.json",
                        help="where to write the JSON report")
    parser.add_argument("--check", metavar="BASELINES",
                        help="gate against a baselines.json; exit 1 on "
                             "regression")
    args = parser.parse_args(argv)

    report = measure(smoke=args.smoke, repeats=args.repeats, k=args.k)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"serial: {report['serial_seconds']:.3f}s "
          f"({report['n_vertices']:,} vertices)")
    for run in report["runs"]:
        print(f"processes x{run['workers']}: {run['seconds']:.3f}s "
              f"= {run['speedup']:.2f}x")
    print(f"wrote {args.output}")

    if args.check:
        violations = check_against_baseline(report, args.check)
        if violations:
            for v in violations:
                print(f"REGRESSION: {v}", file=sys.stderr)
            return 1
        print("baseline check passed")
    return 0


# -- pytest mode (nightly benchmark suite) ---------------------------------------


def test_parallel_backend_speedup(benchmark):
    from conftest import emit_report, run_once

    report = run_once(benchmark, lambda: measure(smoke=True, repeats=1))
    emit_report(
        "parallel_backend",
        "Process backend: end-to-end build speedup vs serial",
        ["workers", "seconds", "speedup"],
        [[r["workers"], f"{r['seconds']:.3f}", f"{r['speedup']:.2f}x"]
         for r in report["runs"]],
        notes=(
            f"serial {report['serial_seconds']:.3f}s on "
            f"{report['cpu_count']} cores; graphs bit-identical across "
            f"backends."
        ),
    )
    assert report["graphs_identical"]
    # Speedup is only meaningful with real cores to run on.
    if (os.cpu_count() or 1) >= 4:
        by_workers = {r["workers"]: r["speedup"] for r in report["runs"]}
        assert by_workers[4] >= 1.5


if __name__ == "__main__":
    sys.exit(main())
