"""In-memory span recorder, self-time arithmetic and Chrome trace export.

A span is one timed call into a layer: name, start, end, the span it ran
inside, the run it belongs to, and optional counts.  Spans are kept in a
list while the traced run executes and serialised once at the end.
"""

from __future__ import annotations

import functools
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start_ns: int
    end_ns: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        if not NAME.fullmatch(name):
            raise ValueError(f"bad span name {name!r}")
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, self.run_id,
                   time.perf_counter_ns(), args=dict(args))
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)
        return traced

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def spans_from_dicts(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.id: s.duration_ns - _covered_ns(children.get(s.id, []),
                                          s.start_ns, s.end_ns)
        for s in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self seconds summed per span name."""
    own = self_times_ns(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id] / 1e9
    return out


def chrome_trace(runs: list[list[Span]]) -> dict:
    """Chrome trace-event JSON: one process track per traced run.

    Opens in Perfetto (ui.perfetto.dev) and chrome://tracing; ``ts`` and
    ``dur`` are microseconds.
    """
    events = []
    for pid, spans in enumerate(runs, start=1):
        t0 = min((s.start_ns for s in spans), default=0)
        for s in spans:
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start_ns - t0) / 1e3, "dur": s.duration_ns / 1e3,
                "pid": pid, "tid": 1,
                "args": {"span": s.id, "parent": s.parent,
                         "run_id": s.run_id, **s.args},
            })
        if spans:
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": spans[0].run_id}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
