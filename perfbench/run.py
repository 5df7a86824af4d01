"""Whole-build benchmark of the ParaHash pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's reads from ``--seed``, writes them as FASTQ and
computes the oracle graph.  With ``--trace 0`` it runs untraced builds --
one at a time, each in a fresh interpreter that times its imports (set-up)
and its build (a closed loop with one client) -- while another build still
fits in ``--seconds`` (at least three), and reports the end-to-end metrics.
With ``--trace 1`` it alternates one untraced build with one traced replay
and reports per-layer metrics, writing the spans as Chrome trace-event JSON
under ``.perfbench_work/traces/``.  Every build is checked against the
oracle and for leaked ``/dev/shm`` segments and stray files.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  The exit code is 0 only when every build was
correct and clean.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_BUILDS = 3  # untraced builds per run, however short --seconds is
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "build_s": "s",
    "kmers_per_s": "kmers/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}

# Per-layer seconds: the summed self time of the listed replay spans.  On
# k > 31 the Step-2 kernels are the repro.bigk twins; they report under the
# core names so that every metric is measured on every workload.
TIMED_LAYERS = {
    "dna.parse_s": ("dna.parse",),
    "msp.split_s": ("msp.split",),
    "msp.spill_s": ("msp.spill",),
    "msp.load_s": ("msp.load",),
    "msp.kmer_pack_s": ("msp.kmer_pack", "bigk.kmer_pack"),
    "core.observations_s": ("core.observations", "bigk.observations"),
    "core.preaggregate_s": ("core.preaggregate", "bigk.preaggregate"),
    "core.insert_s": ("core.insert", "bigk.insert"),
    "core.to_graph_s": ("core.to_graph", "bigk.to_graph"),
    "graph.merge_s": ("graph.merge",),
    "graph.save_s": ("graph.save",),
}
# What the replay serially re-does of one build_graph call: Step 1, Step 2
# and the merge (not parse or save).
KERNEL_LAYERS = [name for name in TIMED_LAYERS
                 if name not in ("dna.parse_s", "graph.save_s")]
PER_LAYER = {
    **{name: "s" for name in TIMED_LAYERS},
    "msp.spill_mb": "MB", "msp.superkmers": "count",
    "msp.partition_skew": "ratio",
    "core.observations": "count", "core.preagg_keep_ratio": "ratio",
    "core.probes_per_op": "ratio", "core.load_factor": "ratio",
    "core.regrows": "count", "core.table_mb": "MB",
    "graph.vertices": "count",
    "parahash.build_graph_s": "s", "parahash.step1_s": "s",
    "parahash.step2_s": "s",
    "parallel.efficiency": "ratio", "parallel.worker_skew": "ratio",
    "parallel.worker_peak_rss_mb": "MB", "parallel.shm_leaked": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_s": "s",
}


def median(values) -> float:
    return float(statistics.median(values))


def run_child(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Run ``argv`` in its own process group; kill the group afterwards."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    finally:
        try:  # workers a crashed child left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def child_env(tmpdir: Path | None = None) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


def warm_imports(modules: list[str]) -> None:
    """Import ``modules`` once in a fresh interpreter, untimed.

    Fills the bytecode and page caches so that the first build of a run
    times the same import work as the others.
    """
    rc, _, err = run_child([sys.executable, "-c", "import " + ", ".join(modules)],
                           child_env())
    if rc != 0:
        raise RuntimeError(f"importing {modules} failed: {err.strip()[-500:]}")


def within(start: float, seconds: float, last: float) -> bool:
    """Whether another round lasting ``last`` still ends inside the window."""
    return time.perf_counter() - start + last <= seconds


class Runner:
    """Runs checked builds and replays of one workload on one input."""

    def __init__(self, wl, fastq: Path, oracle, run_dir: Path) -> None:
        self.wl = wl
        self.fastq = fastq
        self.oracle = oracle
        self.run_dir = run_dir
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.shm_leaked = 0
        self.samples: dict[str, list[float]] = {}

    def run(self, kind: str, run_id: str) -> dict | None:
        """One ``perfbench.build`` or ``perfbench.replay`` child, checked.

        Returns the child's report, or ``None`` when the child failed.  A
        graph that differs from the oracle, or anything left in
        ``/dev/shm``, the private temporary directory or the workdir, marks
        the attempt failed.
        """
        from perfbench.leaks import build_leaks, shm_listing
        from perfbench.oracle import graph_mismatch, load_saved_graph

        wl = self.wl
        bdir = self.run_dir / run_id
        tmp = bdir / "tmp"
        tmp.mkdir(parents=True)
        workdir = bdir / "work" if kind == "replay" or wl.disk_step1 else None
        argv = [sys.executable, "-m", f"perfbench.{kind}", "--workload",
                wl.name, "--fastq", str(self.fastq), "--out",
                str(bdir / "graph.bin")]
        if workdir is not None:
            argv += ["--workdir", str(workdir)]
        if kind == "replay":
            argv += ["--run-id", run_id]
        shm_before = shm_listing()
        rc, out, err = run_child(argv, child_env(tmp))
        shm_after = shm_listing()
        shm_left = shm_after - shm_before
        problems = []
        report = None
        if rc != 0:
            problems.append(f"exit {rc}: {err.strip()[-800:]}")
        else:
            try:
                report = json.loads(out.strip().splitlines()[-1])
                shm_left |= set(report["shm_leaked"])
                for path in report.get("graphs", [str(bdir / "graph.bin")]):
                    why = graph_mismatch(load_saved_graph(path, wl.k),
                                         self.oracle)
                    if why:
                        problems.append(f"{Path(path).name} != oracle: {why}")
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        leaks = build_leaks(shm_left, tmp, workdir, wl.n_partitions)
        problems += [f"left behind {leak}" for leak in leaks]
        self.shm_leaked += len(shm_left)
        for name in shm_after - shm_before:
            (Path("/dev/shm") / name).unlink(missing_ok=True)
        shutil.rmtree(bdir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{run_id}: {p}" for p in problems]
            return None
        return report


def layer_metrics(build: dict, replay: dict, wl) -> dict:
    """Per-layer metrics of one untraced build and one traced replay."""
    from perfbench.tracer import layer_self_seconds, spans_from_dicts

    spans = spans_from_dicts(replay["spans"])
    own = layer_self_seconds(spans)
    roots = {s.name: s.duration_ns / 1e9 for s in spans if s.parent is None}
    m = {name: sum(own.get(span, 0.0) for span in span_names)
         for name, span_names in TIMED_LAYERS.items()}
    m.update(replay["counts"])
    m["parahash.build_graph_s"] = build["build_graph_s"]
    m["parahash.step1_s"] = build["step1_s"]
    m["parahash.step2_s"] = build["step2_s"]
    m["parallel.efficiency"] = sum(m[name] for name in KERNEL_LAYERS) / (
        wl.n_workers * build["build_graph_s"])
    m["parallel.worker_skew"] = build["worker_skew"]
    m["parallel.worker_peak_rss_mb"] = build["rss_worker_mb"]
    m["trace.wall_s"] = roots["build" if "build" in roots else "replay"]
    m["trace.overhead_s"] = m["trace.wall_s"] - build["build_s"]
    m["trace.uncovered_s"] = sum(own[name] for name in roots)
    return m


def cpu_steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's CPUs so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def src_digest() -> str:
    """sha256 over the program's sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, metadata)``."""
    from perfbench.oracle import reference_graph
    from perfbench.workloads import make_reads, write_fastq

    run_dir = WORK / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        reads = make_reads(wl.profile, seed)
        fastq = run_dir / "reads.fastq"
        meta = {
            "workload": wl.name, "seed": seed, "trace": int(trace),
            "config": wl.describe(), "cpu_count": os.cpu_count(),
            "commit": git_commit(), "src_digest": src_digest(),
            "python": sys.version.split()[0],
            "input": {"reads": reads.n_reads,
                      "kmers": reads.n_reads * (reads.read_length - wl.k + 1),
                      "fastq_bytes": write_fastq(reads, fastq)},
        }
        runner = Runner(wl, fastq, reference_graph(reads, wl.k), run_dir)
        del reads
        steal = cpu_steal_s()
        if trace:
            metrics = measure_layers(runner, seed, seconds, meta)
        else:
            metrics = measure_end_to_end(runner, seconds)
        meta["cpu_steal_s"] = cpu_steal_s() - steal
        meta["builds"] = runner.attempted
        meta["samples"] = runner.samples
        meta["problems"] = runner.problems
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, meta


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    warm_imports(runner.wl.entry_modules())
    builds = []
    start = time.perf_counter()
    last = 0.0
    while len(builds) < MIN_BUILDS or within(start, seconds, last):
        t0 = time.perf_counter()
        report = runner.run("build", f"build{runner.attempted}")
        if report is None:
            break
        last = time.perf_counter() - t0
        builds.append(report)
    runner.samples = {key: [r[key] for r in builds]
                      for key in ("build_s", "setup_s")}
    if not builds:
        return {}
    build_s = median(r["build_s"] for r in builds)
    values = {
        "build_s": build_s,
        "kmers_per_s": builds[0]["n_kmers"] / build_s,
        "peak_rss_mb": median(r["rss_self_mb"] + r["rss_worker_mb"]
                              for r in builds),
        "setup_s": median(r["setup_s"] for r in builds),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def measure_layers(runner: Runner, seed: int, seconds: float,
                   meta: dict) -> dict:
    from perfbench.tracer import chrome_trace, spans_from_dicts

    wl = runner.wl
    layers, traced_runs = [], []
    warm_imports(wl.entry_modules())
    start = time.perf_counter()
    last = 0.0
    while not layers or within(start, seconds, last):
        t0 = time.perf_counter()
        i = len(traced_runs)
        build = runner.run("build", f"build{i}")
        replay = runner.run("replay", f"{wl.name}-seed{seed}-replay{i}")
        if build is None or replay is None:
            break
        last = time.perf_counter() - t0
        layers.append(layer_metrics(build, replay, wl))
        traced_runs.append(spans_from_dicts(replay["spans"]))
    if not layers:
        return {}
    values = {name: median(m[name] for m in layers) for name in layers[0]}
    values["parallel.shm_leaked"] = runner.shm_leaked
    trace_path = WORK / "traces" / f"{wl.name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(chrome_trace(traced_runs)))
    meta["trace_file"] = str(trace_path.relative_to(ROOT))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def print_human(result: dict, meta: dict) -> None:
    print(f"{meta['workload']} seed={meta['seed']}: {result['attempted']} "
          f"builds, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    for problem in meta.get("problems", []):
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    results = []
    for name in names:
        result, meta = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace))
        print_human(result, meta)
        print(json.dumps({"meta": meta}))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{metric}": m for name, r in results
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
