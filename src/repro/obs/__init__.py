"""`repro.obs` — zero-dependency tracing, metrics, and profiling.

Off by default: every primitive is a no-op until an :func:`observation`
session is active, so instrumentation stays in the hot paths permanently
without perturbing benchmarks or bit-identity.
"""

from .core import (
    ObsPayload,
    ObsSession,
    SpanRecord,
    TaskContext,
    absorb,
    active_session,
    collect,
    count,
    gauge,
    is_active,
    observation,
    observe,
    peak_rss_bytes,
    span,
    task_context,
    timer,
)
from .export import (
    profile_summary,
    read_chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_session,
)

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
    "profile_summary",
    "read_chrome_trace",
    "read_jsonl",
    "span",
    "task_context",
    "timer",
    "write_chrome_trace",
    "write_jsonl",
    "write_session",
]
