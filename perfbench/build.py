"""One untraced build in a fresh interpreter, the way ``repro build`` runs it.

    python3 -m perfbench.build --workload NAME --fastq READS --out GRAPH
                               [--workdir DIR]

Times the import of the workload's entry points (set-up) and then
parse -> ``ParaHash(cfg).build_graph`` -> save (the build), and prints one
JSON line: both times, the wall time of the ``build_graph`` call alone, the
program-reported Step 1 / Step 2 seconds, the k-mer count, the spread of work
over workers, peak RSS of this process and of its largest worker, and the
``/dev/shm`` entries the build added.  That listing
is taken before this interpreter exits, because at exit the multiprocessing
resource tracker may unlink a leaked segment and hide the leak from the
caller.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time

from perfbench.leaks import shm_listing
from perfbench.workloads import WORKLOADS


def save_fn(bigk: bool):
    if bigk:
        from repro.bigk import save_big_graph

        return save_big_graph
    from repro.graph.serialize import save_graph

    return save_graph


def worker_skew(records) -> float:
    """Max over mean items per worker (1.0 = perfectly even or one process)."""
    items = [r.items_processed for r in records.values()]
    if not items or sum(items) == 0:
        return 1.0
    return max(items) * len(items) / sum(items)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--fastq", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for mod in wl.entry_modules():
        importlib.import_module(mod)
    setup_s = time.perf_counter() - t0
    from repro.core.parahash import ParaHash
    from repro.dna.io import load_read_batch

    save = save_fn(wl.bigk)
    cfg = wl.parahash_config()

    shm_before = shm_listing()
    t0 = time.perf_counter()
    reads = load_read_batch(args.fastq)
    t1 = time.perf_counter()
    result = ParaHash(cfg).build_graph(reads, workdir=args.workdir)
    build_graph_s = time.perf_counter() - t1
    save(args.out, result.graph)
    build_s = time.perf_counter() - t0

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "build_s": build_s,
        "build_graph_s": build_graph_s,
        "step1_s": result.timings.msp_seconds,
        "step2_s": result.timings.hashing_seconds,
        "worker_skew": worker_skew(result.worker_records),
        "n_kmers": result.n_kmers,
        "rss_self_mb": self_kb / 1024,
        "rss_worker_mb": child_kb / 1024,
        "shm_leaked": sorted(shm_listing() - shm_before),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
