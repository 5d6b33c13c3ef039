"""Exporter round-trips: span log, Chrome trace, profile summary."""

import json

from repro.obs import (
    observation,
    profile_summary,
    read_chrome_trace,
    read_jsonl,
    span,
    write_chrome_trace,
    write_jsonl,
    write_session,
)
from repro.obs.core import MetricsRegistry, SpanRecord


def _sample_spans(pid=100):
    return [
        SpanRecord("root", 1_000, 9_000, pid, 1, f"{pid}.1", None, {"trace_id": "t"}),
        SpanRecord("child", 2_000, 3_000, pid, 1, f"{pid}.2", f"{pid}.1", {"k": "v"}),
    ]


def _sample_metrics():
    registry = MetricsRegistry()
    registry.count("lines", 7, scheme="fpc")
    registry.observe("occupancy", 2.0)
    return registry.snapshot()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        write_jsonl(path, _sample_spans(), _sample_metrics(), trace_id="t", label="run")
        spans, metrics, meta = read_jsonl(path)
        assert spans == _sample_spans()
        assert metrics == _sample_metrics()
        assert meta["trace_id"] == "t"
        assert meta["label"] == "run"
        assert meta["schema"] == 1

    def test_concatenated_logs_merge(self, tmp_path):
        a = tmp_path / "a.trace.jsonl"
        b = tmp_path / "b.trace.jsonl"
        write_jsonl(a, _sample_spans(100), _sample_metrics(), trace_id="t", label="s1")
        write_jsonl(b, _sample_spans(200), _sample_metrics(), trace_id="t", label="s2")
        combined = tmp_path / "cat.trace.jsonl"
        combined.write_text(a.read_text() + b.read_text())
        spans, metrics, meta = read_jsonl(combined)
        assert len(spans) == 4
        assert metrics["lines{scheme=fpc}"]["value"] == 14
        assert meta["label"] == "s1"  # first meta wins


class TestChromeTrace:
    def test_structure_is_perfetto_loadable(self, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(path, _sample_spans(), _sample_metrics())
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        # ts is relative to the earliest span, in microseconds
        by_name = {e["name"]: e for e in complete}
        assert by_name["root"]["ts"] == 0.0
        assert by_name["child"]["ts"] == 1.0
        assert by_name["child"]["dur"] == 3.0
        assert by_name["child"]["args"]["parent"] == "100.1"
        meta_events = [e for e in events if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta_events] == ["worker-100"]
        assert document["otherData"]["metrics"] == _sample_metrics()

    def test_read_back_preserves_tree_and_durations(self, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(path, _sample_spans(), _sample_metrics())
        spans, metrics = read_chrome_trace(path)
        by_name = {r.name: r for r in spans}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["child"].dur_ns == 3_000
        assert metrics == _sample_metrics()

    def test_empty_span_list(self, tmp_path):
        path = tmp_path / "empty.trace.json"
        write_chrome_trace(path, [], {})
        spans, metrics = read_chrome_trace(path)
        assert spans == [] and metrics == {}


class TestWriteSession:
    def test_suffix_selects_format(self, tmp_path):
        with observation("fmt") as session:
            with span("inner"):
                pass
        log = write_session(session, tmp_path / "out.trace.jsonl")
        spans, _, meta = read_jsonl(log)
        assert meta["label"] == "fmt"
        assert {r.name for r in spans} == {"fmt", "inner"}
        chrome = write_session(session, tmp_path / "out.trace.json")
        document = json.loads(chrome.read_text())
        assert {e["name"] for e in document["traceEvents"] if e["ph"] == "X"} == {
            "fmt",
            "inner",
        }


class TestProfileSummary:
    def test_aggregates_and_sorts_by_total(self):
        spans = [
            SpanRecord("fast", 0, 1_000_000, 1, 1, "1.1", None),
            SpanRecord("slow", 0, 5_000_000, 1, 1, "1.2", None),
            SpanRecord("slow", 0, 3_000_000, 1, 1, "1.3", None),
        ]
        summary = profile_summary(spans, _sample_metrics())
        assert list(summary["spans"]) == ["slow", "fast"]
        slow = summary["spans"]["slow"]
        assert slow["count"] == 2
        assert slow["total_ms"] == 8.0
        assert slow["mean_ms"] == 4.0
        assert slow["max_ms"] == 5.0
        assert summary["metrics"]["lines{scheme=fpc}"] == 7
        occupancy = summary["metrics"]["occupancy"]
        assert occupancy["count"] == 1 and occupancy["mean"] == 2.0

    def test_empty_inputs(self):
        assert profile_summary([], {}) == {"spans": {}, "metrics": {}}
