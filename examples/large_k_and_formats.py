#!/usr/bin/env python3
"""Large-K construction, graph files, and analysis.

The paper stresses that ParaHash's hash entries span multiple machine
words, so kmer lengths are not capped by a 64-bit CAS.  This example
builds the same dataset's graph at K = 27 (one-word keys) and K = 41
(two-word keys) through the one ``build_debruijn_graph`` pipeline,
compares their structure,
round-trips the small-K graph through the binary file format, and runs
the analysis toolkit on it.

    python examples/large_k_and_formats.py
"""

import tempfile
from pathlib import Path

from repro.analysis import analyze_spectrum, degree_summary, estimate_error_rate
from repro.core import build_debruijn_graph
from repro.dna import DatasetProfile
from repro.graph import load_graph, save_graph
from repro.util import print_table


def main() -> None:
    profile = DatasetProfile(
        name="large-k",
        genome_size=12_000,
        read_length=100,
        coverage=18.0,
        mean_errors=1.0,
        repeat_fraction=0.0,
        seed=77,
    )
    _, reads = profile.generate()
    print(f"dataset: {reads.n_reads:,} reads x {reads.read_length} bp")

    # Same pipeline, two key widths.
    g27 = build_debruijn_graph(reads, k=27, p=11, n_partitions=16)
    g41 = build_debruijn_graph(reads, k=41, p=15, n_partitions=16)
    print_table(
        ["K", "key words", "distinct vertices", "duplicates", "edge weight"],
        [
            [27, 1, g27.n_vertices, g27.n_duplicate_vertices(),
             g27.total_edge_weight()],
            [41, 2, g41.n_vertices, g41.n_duplicate_vertices(),
             g41.total_edge_weight()],
        ],
        title="one-word vs two-word keys (same reads, same pipeline)",
    )
    print("Longer K means fewer kmers per read but more error-corrupted "
          "kmers per error — both visible above.")

    # Round-trip the K=27 graph through the binary format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.phdbg"
        n_bytes = save_graph(path, g27)
        back = load_graph(path)
        assert back.equals(g27)
        print(f"\nbinary round trip OK: {n_bytes:,} bytes "
              f"({n_bytes / g27.n_vertices:.0f} B/vertex)")

    # Analysis toolkit on the constructed graph.
    spectrum = analyze_spectrum(g27)
    degrees = degree_summary(g27)
    est = estimate_error_rate(g27, reads.n_reads, reads.read_length)
    print_table(
        ["metric", "value"],
        [
            ["coverage peak", f"{spectrum.coverage_peak}x"],
            ["error threshold", spectrum.error_threshold],
            ["estimated genome size", spectrum.estimated_genome_size],
            ["true genome size", profile.genome_size],
            ["junction vertices", degrees.n_junctions],
            ["estimated lambda (errors/read)", f"{est.lam:.2f}"],
            ["true lambda", profile.mean_errors],
        ],
        title="spectrum / degree / error-rate analysis (K=27)",
    )


if __name__ == "__main__":
    main()
