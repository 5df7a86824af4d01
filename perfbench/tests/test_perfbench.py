"""Self-tests of the benchmark's own logic (not of the program it measures)."""

from __future__ import annotations

import json
import re
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from perfbench import leaks, oracle, run
from perfbench.tracer import (
    Span, Tracer, chrome_trace, layer_self_seconds, self_times_ns,
)
from perfbench.workloads import WORKLOADS, make_reads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(sid, name, parent, start, end):
    return Span(sid, name, parent, "r", start, end)


# -- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "root", None, 0, 100),
        _span(1, "a", 0, 10, 40),
        _span(2, "a.inner", 1, 20, 30),
        _span(3, "b", 0, 50, 90),
    ]
    assert self_times_ns(spans) == {0: 30, 1: 20, 2: 10, 3: 40}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "root", None, 0, 100),
        _span(1, "a", 0, 10, 40),
        _span(2, "b", 0, 30, 60),
        _span(3, "c", 0, 90, 120),  # runs past its parent: clipped
    ]
    assert self_times_ns(spans)[0] == 100 - 50 - 10


def test_layer_self_times_add_up_to_the_wall():
    spans = [
        _span(0, "replay", None, 0, 1000),
        _span(1, "core.observations", 0, 100, 400),
        _span(2, "msp.kmer_pack", 1, 150, 300),
        _span(3, "core.observations", 0, 500, 700),
        _span(4, "msp.kmer_pack", 3, 500, 600),
    ]
    own = layer_self_seconds(spans)
    assert own["msp.kmer_pack"] == pytest.approx(250e-9)
    assert own["core.observations"] == pytest.approx(250e-9)
    assert own["replay"] == pytest.approx(500e-9)
    assert sum(own.values()) == pytest.approx(1000e-9)


def test_tracer_records_parents_and_wrapped_calls():
    tracer = Tracer("run-1")
    double = tracer.wrap(lambda x: 2 * x, "inner.call")
    with tracer.span("outer", items=3):
        assert double(21) == 42
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.args == {"items": 3} and inner.run_id == "run-1"
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    own = self_times_ns(tracer.spans)
    assert own[outer.id] + own[inner.id] == outer.duration_ns


def test_tracer_rejects_bad_names():
    with pytest.raises(ValueError):
        with Tracer("r").span("bad name"):
            pass


def test_chrome_trace_is_complete_event_json():
    tracer = Tracer("wl-seed1-replay0")
    with tracer.span("replay"):
        with tracer.span("dna.parse"):
            pass
    doc = json.loads(json.dumps(chrome_trace([tracer.spans])))
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["replay", "dna.parse"]
    assert events[1]["args"]["parent"] == events[0]["args"]["span"]
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)


# -- names --------------------------------------------------------------------

def test_every_name_and_unit_is_well_formed():
    names = list(WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    units = list(run.END_TO_END.values()) + list(run.PER_LAYER.values())
    assert all(UNIT.fullmatch(unit) for unit in units), units


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- oracle -------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_reads():
    from repro.dna.simulate import DatasetProfile

    return DatasetProfile(name="t", genome_size=3000, read_length=70,
                          coverage=5, mean_errors=2, seed=3).generate_reads()


@pytest.mark.parametrize("k", [33, 45, 63])
def test_bigk_oracle_equals_the_slow_reference(small_reads, k):
    from repro.bigk.store import build_reference_bigk_slow

    want = build_reference_bigk_slow(small_reads, k)
    assert oracle.graph_mismatch(oracle.reference_bigk(small_reads, k),
                                 want) is None


@pytest.mark.parametrize("k", [27, 45])
def test_oracle_catches_one_changed_count(small_reads, k):
    from repro.core.config import ParaHashConfig
    from repro.core.parahash import ParaHash

    graph = ParaHash(ParaHashConfig(k=k, p=11, n_partitions=8)).build_graph(
        small_reads).graph
    want = oracle.reference_graph(small_reads, k)
    assert oracle.graph_mismatch(graph, want) is None
    graph.counts[len(graph.counts) // 2, 3] += 1
    why = oracle.graph_mismatch(graph, want)
    assert why is not None and "counts differ" in why


def test_oracle_catches_a_missing_vertex(small_reads):
    from repro.graph.dbg import DeBruijnGraph

    want = oracle.reference_graph(small_reads, 27)
    short = DeBruijnGraph(k=27, vertices=want.vertices[1:],
                          counts=want.counts[1:])
    assert "vertices" in oracle.graph_mismatch(short, want)


def test_inputs_depend_only_on_the_seed():
    profile = WORKLOADS["lowcov_k27_serial"].profile
    small = type(profile)(profile.name, profile.index, 5000, 50, 3.0, 1.0)
    a, b, c = (make_reads(small, s).codes for s in (7, 7, 8))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


# -- leaks --------------------------------------------------------------------

def test_leak_check_catches_a_left_shm_segment(tmp_path):
    before = leaks.shm_listing()
    seg = shared_memory.SharedMemory(create=True, size=64)
    try:
        found = leaks.build_leaks(leaks.shm_listing() - before, tmp_path,
                                  None, 0)
    finally:
        seg.close()
        seg.unlink()
    assert found == [f"/dev/shm/{seg.name.lstrip('/')}"]


def test_leak_check_catches_stray_files(tmp_path):
    tmp, work = tmp_path / "tmp", tmp_path / "work"
    (tmp / "repro-parallel-x").mkdir(parents=True)
    (work / "spill").mkdir(parents=True)
    for i in range(2):
        (work / f"partition_{i:04d}.phsk").write_bytes(b"")
    (work / "spill" / "spill_w000_p0000.phsk").write_bytes(b"")
    found = leaks.build_leaks(set(), tmp, work, 2)
    assert found == ["tmp/repro-parallel-x", "workdir/spill",
                     "workdir/spill/spill_w000_p0000.phsk"]
    (work / "spill" / "spill_w000_p0000.phsk").unlink()
    (work / "spill").rmdir()
    (tmp / "repro-parallel-x").rmdir()
    assert leaks.build_leaks(set(), tmp, work, 2) == []
    assert leaks.build_leaks(set(), tmp, work, 3) == [
        "workdir holds 2 partition files, expected 3"]
