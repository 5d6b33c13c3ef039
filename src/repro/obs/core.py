"""Span-based tracing and a metrics registry for the evaluation pipeline.

The module keeps one process-wide *session* (:class:`ObsSession`).  When no
session is active -- the default -- every entry point degrades to a no-op
whose cost is one module-global load and a ``None`` comparison, so the hot
paths of the evaluation engine can stay instrumented permanently without
perturbing the benchmarks (<3% overhead is the repo's acceptance bar; in
practice the disabled path is unmeasurable next to a 2048-line encode).

Three primitives:

``span(name, **attrs)``
    A context manager timing one region.  Spans nest: each thread keeps a
    stack of open span ids, so a span opened inside another becomes its
    child and the exporters can rebuild the tree.
``count(name, value=1, **labels)`` / ``observe(name, value, **labels)``
    Counters and min/max/total histograms in the session's
    :class:`MetricsRegistry`, keyed by name plus sorted labels.
``gauge(name, value, **labels)``
    High-water-mark gauges: recording keeps the maximum value seen, and
    merging across workers keeps the maximum again, so a per-process peak
    (e.g. ``peak_rss_bytes``) aggregates to the fleet-wide peak.
``timer(name, **labels)``
    A context manager recording a region's duration into a histogram (used
    for the per-kernel compression timings, where one span per kernel call
    would drown the trace).

Cross-process stitching mirrors the engine's determinism contract: the
parent captures a picklable :class:`TaskContext` (trace id + parent span id)
into each dispatched shard, the worker wraps its evaluation in
:func:`collect` -- which records into the parent's session directly when the
worker shares the process (serial and thread backends) and into an ephemeral
buffer otherwise -- and the parent :func:`absorb`\\ s the returned
:class:`ObsPayload` in the same submission order the metric reduction
already uses.  Spans and metrics ride *alongside* the seeded RNG streams,
never inside them, so instrumented runs are bit-identical to uninstrumented
ones.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "ObsPayload",
    "ObsSession",
    "SpanRecord",
    "TaskContext",
    "absorb",
    "active_session",
    "collect",
    "count",
    "gauge",
    "is_active",
    "observation",
    "observe",
    "peak_rss_bytes",
    "span",
    "task_context",
    "timer",
]

#: Process-wide span-id counter; shared by every session of the process so a
#: worker that opens one ephemeral collection per shard still hands out
#: unique ids.
_IDS = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid()}.{next(_IDS)}"


@dataclass
class SpanRecord:
    """One completed span: a named, timed region of one thread."""

    name: str
    start_ns: int  # epoch nanoseconds (comparable across processes)
    dur_ns: int
    pid: int
    tid: int
    span_id: str
    parent_id: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
            "parent": self.parent_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            start_ns=payload["start_ns"],
            dur_ns=payload["dur_ns"],
            pid=payload["pid"],
            tid=payload["tid"],
            span_id=payload["id"],
            parent_id=payload.get("parent"),
            attrs=dict(payload.get("attrs") or {}),
        )


class MetricsRegistry:
    """Counters and lightweight histograms, keyed by ``name{label=value,...}``.

    Histograms keep count/total/min/max -- enough for the profile summary --
    instead of buckets, so snapshots stay tiny and merging across processes
    is exact.  All mutation is lock-protected: the thread evaluation backend
    records from worker threads directly.
    """

    def __init__(self) -> None:
        self._values: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    @staticmethod
    def key(name: str, labels: Dict[str, Any]) -> str:
        if not labels:
            return name
        rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{rendered}}}"

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        key = self.key(name, labels)
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                self._values[key] = {"type": "counter", "value": value}
            else:
                entry["value"] += value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = self.key(name, labels)
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                self._values[key] = {
                    "type": "histogram",
                    "count": 1,
                    "total": value,
                    "min": value,
                    "max": value,
                }
            else:
                entry["count"] += 1
                entry["total"] += value
                entry["min"] = min(entry["min"], value)
                entry["max"] = max(entry["max"], value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Record a high-water-mark gauge (keeps the maximum value seen)."""
        key = self.key(name, labels)
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                self._values[key] = {"type": "gauge", "value": value}
            else:
                entry["value"] = max(entry["value"], value)

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, histograms pool, gauges max-merge -- a worker's peak
        memory gauge therefore surfaces as the maximum across processes.
        """
        with self._lock:
            for key, other in snapshot.items():
                entry = self._values.get(key)
                if entry is None:
                    self._values[key] = dict(other)
                elif other.get("type") == "counter":
                    entry["value"] += other["value"]
                elif other.get("type") == "gauge":
                    entry["value"] = max(entry["value"], other["value"])
                else:
                    entry["count"] += other["count"]
                    entry["total"] += other["total"]
                    entry["min"] = min(entry["min"], other["min"])
                    entry["max"] = max(entry["max"], other["max"])

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {key: dict(entry) for key, entry in self._values.items()}


@dataclass(frozen=True)
class TaskContext:
    """Picklable trace context a dispatched task carries into its worker."""

    trace_id: str
    parent_id: Optional[str]


@dataclass
class ObsPayload:
    """Spans and metrics a worker process ships back with its result."""

    spans: List[dict]
    metrics: Dict[str, Dict[str, Any]]


class ObsSession:
    """One observation: a root span, collected spans, and a metrics registry."""

    def __init__(self, label: str = "run", trace_id: Optional[str] = None):
        self.label = label
        self.trace_id = trace_id or f"{os.getpid():x}-{time.time_ns():x}"
        # Owning process: a fork-started pool worker inherits the parent's
        # _SESSION as a dead copy, and collect() must not record into it.
        self.pid = os.getpid()
        self.root_id = _new_id()
        self.start_ns = time.time_ns()
        self.spans: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- per-thread open-span stack ------------------------------------- #
    @property
    def stack(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_parent(self) -> str:
        stack = self.stack
        return stack[-1] if stack else self.root_id

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def finish(self) -> None:
        """Close the session by recording its root span."""
        end = time.time_ns()
        self.record(
            SpanRecord(
                name=self.label,
                start_ns=self.start_ns,
                dur_ns=end - self.start_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self.root_id,
                parent_id=None,
                attrs={"trace_id": self.trace_id},
            )
        )

    def payload(self) -> ObsPayload:
        with self._lock:
            spans = [record.as_dict() for record in self.spans]
        return ObsPayload(spans=spans, metrics=self.metrics.snapshot())


#: The process-wide active session (None = observability disabled).
_SESSION: Optional[ObsSession] = None


def is_active() -> bool:
    """Whether an observation session is collecting in this process."""
    return _SESSION is not None


def active_session() -> Optional[ObsSession]:
    return _SESSION


class _NullContext:
    """Shared no-op stand-in for spans and timers when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullContext":
        return self


_NULL = _NullContext()


class _Span:
    __slots__ = ("_session", "name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, session: ObsSession, name: str, attrs: Dict[str, Any]):
        self._session = session
        self.name = name
        self.attrs = attrs
        self.span_id = _new_id()
        self.parent_id: Optional[str] = None
        self._start = 0

    def set(self, **attrs: Any) -> "_Span":
        """Attach (or update) attributes of an open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        session = self._session
        self.parent_id = session.current_parent()
        session.stack.append(self.span_id)
        self._start = time.time_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.time_ns()
        session = self._session
        stack = session.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        session.record(
            SpanRecord(
                name=self.name,
                start_ns=self._start,
                dur_ns=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self.span_id,
                parent_id=self.parent_id,
                attrs=self.attrs,
            )
        )
        return False


class _Timer:
    __slots__ = ("_session", "_name", "_labels", "_start")

    def __init__(self, session: ObsSession, name: str, labels: Dict[str, Any]):
        self._session = session
        self._name = name
        self._labels = labels
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed_ms = (time.perf_counter_ns() - self._start) / 1e6
        self._session.metrics.observe(self._name, elapsed_ms, **self._labels)
        return False


def span(name: str, **attrs: Any):
    """Context manager timing one named region (no-op without a session)."""
    session = _SESSION
    if session is None:
        return _NULL
    return _Span(session, name, attrs)


def timer(name: str, **labels: Any):
    """Context manager recording a duration histogram (milliseconds)."""
    session = _SESSION
    if session is None:
        return _NULL
    return _Timer(session, name, labels)


def count(name: str, value: float = 1, **labels: Any) -> None:
    """Increment a counter of the active session (no-op without one)."""
    session = _SESSION
    if session is not None:
        session.metrics.count(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record one histogram observation (no-op without a session)."""
    session = _SESSION
    if session is not None:
        session.metrics.observe(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Record a high-water-mark gauge (no-op without a session).

    Gauges keep the maximum value seen and max-merge across processes, so
    recording a per-process peak from every worker yields the run's peak.
    """
    session = _SESSION
    if session is not None:
        session.metrics.gauge(name, value, **labels)


def peak_rss_bytes() -> Optional[float]:
    """This process's peak resident-set size in bytes (high-water mark).

    Reads ``VmHWM`` from ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` (``ru_maxrss`` is kilobytes on Linux) and returns
    ``None`` on platforms where neither source exists.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:
        pass
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0
    except Exception:  # pragma: no cover - exotic platforms only
        return None


@contextmanager
def observation(label: str = "run") -> Iterator[ObsSession]:
    """Activate a session for the duration of the block.

    Nested use inside an already active session yields the existing session
    and leaves its lifetime alone, so library code can call this defensively.
    """
    global _SESSION
    if _SESSION is not None:
        yield _SESSION
        return
    session = ObsSession(label)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.finish()


def task_context() -> Optional[TaskContext]:
    """The context a task dispatched *now* should carry (None when disabled)."""
    session = _SESSION
    if session is None:
        return None
    return TaskContext(trace_id=session.trace_id, parent_id=session.current_parent())


class _Collector:
    """Handle :func:`collect` yields; ``payload()`` is what ships back."""

    __slots__ = ("_session",)

    def __init__(self, session: Optional[ObsSession]):
        self._session = session

    def payload(self) -> Optional[ObsPayload]:
        if self._session is None:
            return None
        return self._session.payload()


_INERT_COLLECTOR = _Collector(None)


@contextmanager
def collect(ctx: Optional[TaskContext]) -> Iterator[_Collector]:
    """Record one dispatched task's spans/metrics under ``ctx``.

    * ``ctx is None``: observability was off at dispatch -- pure no-op.
    * Same process, matching session (serial path, thread backend): record
      straight into the active session; worker threads get ``ctx.parent_id``
      pushed as their base frame so their spans stitch under the dispatch
      site.  ``payload()`` returns ``None`` -- nothing to ship.
    * Fresh worker process: an ephemeral session buffers the task's spans
      and metrics; ``payload()`` returns the picklable :class:`ObsPayload`
      for the parent to :func:`absorb`.
    """
    global _SESSION
    if ctx is None:
        yield _INERT_COLLECTOR
        return
    active = _SESSION
    # A session inherited through fork belongs to the parent process: its
    # records would die with this worker, so treat it as absent and buffer
    # into an ephemeral session instead.
    if active is not None and active.pid != os.getpid():
        active = None
    if active is not None:
        pushed = False
        if active.trace_id == ctx.trace_id and not active.stack and ctx.parent_id:
            active.stack.append(ctx.parent_id)
            pushed = True
        try:
            yield _INERT_COLLECTOR
        finally:
            if pushed:
                active.stack.pop()
        return
    session = ObsSession(label="task", trace_id=ctx.trace_id)
    # Parent every task span under the dispatch-site span of the parent
    # process instead of a local root.
    session.root_id = ctx.parent_id or session.root_id
    _SESSION = session
    try:
        yield _Collector(session)
    finally:
        _SESSION = None


def absorb(payload: Optional[ObsPayload]) -> None:
    """Merge a worker's payload into the active session (submission order)."""
    session = _SESSION
    if session is None or payload is None:
        return
    records = [SpanRecord.from_dict(entry) for entry in payload.spans]
    with session._lock:
        session.spans.extend(records)
    session.metrics.merge(payload.metrics)
