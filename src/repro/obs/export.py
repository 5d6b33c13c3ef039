"""Exporters for observation sessions.

Three output shapes, all derived from the same ``(spans, metrics)`` pair:

* **JSON-lines span log** (``.trace.jsonl``) -- one self-describing JSON
  object per line: a ``meta`` header, one ``span`` line per record, and a
  trailing ``metrics`` snapshot.
* **Chrome trace-event JSON** (``.trace.json``) -- the ``traceEvents``
  array format Perfetto and ``chrome://tracing`` load directly: complete
  ("X") events with microsecond timestamps plus process-name metadata.
* **Profile summary** -- per-span-name count/total/mean/max aggregates and
  a flat metrics listing, rendered through the repo's standard series
  table for the ``repro profile`` command.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core import MetricsRegistry, ObsSession, SpanRecord

__all__ = [
    "profile_summary",
    "read_chrome_trace",
    "read_jsonl",
    "spans_to_chrome_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_session",
]

JSONL_SCHEMA = 1


def write_jsonl(
    path: Path,
    spans: Sequence[SpanRecord],
    metrics: Dict[str, Dict[str, Any]],
    *,
    trace_id: str,
    label: str,
) -> Path:
    """Write one span log: meta line, span lines, metrics line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "schema": JSONL_SCHEMA,
            "trace_id": trace_id,
            "label": label,
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for record in sorted(spans, key=lambda r: (r.start_ns, r.span_id)):
            fh.write(
                json.dumps({"type": "span", **record.as_dict()}, sort_keys=True)
                + "\n"
            )
        fh.write(
            json.dumps({"type": "metrics", "values": metrics}, sort_keys=True) + "\n"
        )
    return path


def read_jsonl(
    path: Path,
) -> Tuple[List[SpanRecord], Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Read a span log back as ``(spans, metrics, meta)``.

    Tolerates concatenated logs (multiple meta/metrics lines): spans
    accumulate and metrics snapshots merge.
    """
    spans: List[SpanRecord] = []
    registry = MetricsRegistry()
    meta: Dict[str, Any] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            kind = payload.get("type")
            if kind == "span":
                spans.append(SpanRecord.from_dict(payload))
            elif kind == "metrics":
                registry.merge(payload.get("values") or {})
            elif kind == "meta" and not meta:
                meta = payload
    return spans, registry.snapshot(), meta


def spans_to_chrome_events(spans: Sequence[SpanRecord]) -> List[dict]:
    """Convert spans to Chrome trace events (ts/dur in microseconds)."""
    if not spans:
        return []
    t0 = min(record.start_ns for record in spans)
    events: List[dict] = []
    labels: Dict[int, str] = {}
    for record in sorted(spans, key=lambda r: (r.start_ns, r.span_id)):
        args = {k: v for k, v in record.attrs.items()}
        args["id"] = record.span_id
        if record.parent_id:
            args["parent"] = record.parent_id
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": (record.start_ns - t0) / 1e3,
                "dur": record.dur_ns / 1e3,
                "pid": record.pid,
                "tid": record.tid,
                "args": args,
            }
        )
        labels.setdefault(
            record.pid,
            "main" if record.pid == os.getpid() else f"worker-{record.pid}",
        )
    for pid, label in sorted(labels.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return events


def write_chrome_trace(
    path: Path,
    spans: Sequence[SpanRecord],
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Path:
    """Write a Perfetto-loadable Chrome trace-event file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document: Dict[str, Any] = {
        "traceEvents": spans_to_chrome_events(spans),
        "displayTimeUnit": "ms",
    }
    if metrics:
        document["otherData"] = {"metrics": metrics}
    path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return path


def read_chrome_trace(
    path: Path,
) -> Tuple[List[SpanRecord], Dict[str, Dict[str, Any]]]:
    """Read a Chrome trace-event file back as ``(spans, metrics)``.

    Inverse of :func:`write_chrome_trace` up to the absolute epoch (``ts`` is
    written relative to the earliest span, so reconstructed ``start_ns``
    values are relative too -- durations and ordering are exact, which is all
    the profile summary needs).
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spans: List[SpanRecord] = []
    for event in payload.get("traceEvents") or []:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = str(args.pop("id", "")) or f"chrome.{len(spans)}"
        parent = args.pop("parent", None)
        spans.append(
            SpanRecord(
                name=event.get("name", "?"),
                start_ns=int(round(float(event.get("ts", 0)) * 1e3)),
                dur_ns=int(round(float(event.get("dur", 0)) * 1e3)),
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                span_id=span_id,
                parent_id=str(parent) if parent is not None else None,
                attrs=args,
            )
        )
    metrics = (payload.get("otherData") or {}).get("metrics") or {}
    return spans, metrics


def write_session(
    session: ObsSession, path: Path, *, fmt: Optional[str] = None
) -> Path:
    """Write a finished session; format inferred from suffix unless given.

    ``.jsonl`` -> span log, anything else -> Chrome trace JSON.
    """
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix == ".jsonl" else "chrome"
    if fmt == "jsonl":
        return write_jsonl(
            path,
            session.spans,
            session.metrics.snapshot(),
            trace_id=session.trace_id,
            label=session.label,
        )
    return write_chrome_trace(path, session.spans, session.metrics.snapshot())


def profile_summary(
    spans: Sequence[SpanRecord], metrics: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Aggregate spans/metrics into the ``repro profile`` summary payload.

    Returns ``{"spans": {name: {count,total_ms,mean_ms,max_ms}},
    "metrics": {key: value-or-histogram-dict}}`` with span rows sorted by
    total time descending.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for record in spans:
        entry = rows.setdefault(
            record.name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
        )
        dur_ms = record.dur_ns / 1e6
        entry["count"] += 1
        entry["total_ms"] += dur_ms
        entry["max_ms"] = max(entry["max_ms"], dur_ms)
    for entry in rows.values():
        entry["mean_ms"] = entry["total_ms"] / entry["count"] if entry["count"] else 0.0
    ordered = dict(
        sorted(rows.items(), key=lambda item: item[1]["total_ms"], reverse=True)
    )
    flat_metrics: Dict[str, Any] = {}
    for key in sorted(metrics):
        entry = metrics[key]
        if entry.get("type") in ("counter", "gauge"):
            flat_metrics[key] = entry["value"]
        else:
            flat_metrics[key] = {
                "count": entry["count"],
                "total": entry["total"],
                "min": entry["min"],
                "max": entry["max"],
                "mean": entry["total"] / entry["count"] if entry["count"] else 0.0,
            }
    return {"spans": ordered, "metrics": flat_metrics}
