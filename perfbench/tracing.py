"""The benchmark's own span recorder.

Spans are recorded by the benchmark around its calls into the program's
public functions -- never inside the program -- and kept in memory until
the run ends, when :meth:`Tracer.write` dumps them as JSON lines.  Each
span carries a name, start and end (``perf_counter_ns``), the id of the
span that was open when it started, the workload id, and free attributes.
Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "parent", "start_ns", "end_ns", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], attrs: Dict[str, Any]):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start_ns = 0
        self.end_ns = 0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory span recorder for one benchmark run of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record = Span(len(self.spans) + 1, name, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start_ns = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def find(self, name: str, **attrs: Any) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def seconds(self, name: str, **attrs: Any) -> float:
        """Total duration of every span matching ``name`` and ``attrs``."""
        return sum(s.seconds for s in self.find(name, **attrs))

    def self_ns(self) -> Dict[int, int]:
        """Self time of every span: duration minus the union of its children."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        result = {}
        for s in self.spans:
            covered = 0
            cursor = s.start_ns
            for child in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
                lo = max(cursor, child.start_ns)
                hi = min(s.end_ns, child.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.id] = (s.end_ns - s.start_ns) - covered
        return result

    def write(self, path: Path) -> None:
        self_ns = self.self_ns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "workload": self.workload,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns[s.id],
                    "attrs": s.attrs,
                }, sort_keys=True) + "\n")

    def self_time_table(self, top: int = 12) -> List[str]:
        """The ``top`` span names by summed self time, as printable rows."""
        self_ns = self.self_ns()
        totals: Dict[str, List[int]] = {}
        for s in self.spans:
            entry = totals.setdefault(s.name, [0, 0, 0])
            entry[0] += self_ns[s.id]
            entry[1] += s.end_ns - s.start_ns
            entry[2] += 1
        rows = sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]
        return [
            f"  {name:<36} self {v[0] / 1e9:9.4f} s  total {v[1] / 1e9:9.4f} s  n={v[2]}"
            for name, v in rows
        ]


def read_spans(path: Path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def span_problems(records: List[Dict[str, Any]], workload: str) -> List[str]:
    """What is wrong with a written span file; empty when it is a well-formed tree.

    Every span must have a unique id, belong to ``workload``, end after it
    starts, name a parent that is in the file (orphans are errors), lie
    within its parent's start and end, and have a self time between 0 and
    its duration.  Exactly one span is the root.
    """
    problems: List[str] = []
    by_id: Dict[int, Dict[str, Any]] = {}
    for r in records:
        if r["id"] in by_id:
            problems.append(f"span {r['id']}: duplicate id")
        by_id[r["id"]] = r
    roots = [r for r in records if r["parent"] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for r in records:
        label = f"span {r['id']} ({r['name']})"
        if r["workload"] != workload:
            problems.append(f"{label}: workload {r['workload']!r}")
        if r["end_ns"] < r["start_ns"]:
            problems.append(f"{label}: ends before it starts")
        if not 0 <= r["self_ns"] <= r["end_ns"] - r["start_ns"]:
            problems.append(f"{label}: self time outside its duration")
        if r["parent"] is None:
            continue
        parent = by_id.get(r["parent"])
        if parent is None:
            problems.append(f"{label}: orphan, parent {r['parent']} not recorded")
        elif r["start_ns"] < parent["start_ns"] or r["end_ns"] > parent["end_ns"]:
            problems.append(f"{label}: outside parent {parent['id']}")
    return problems
