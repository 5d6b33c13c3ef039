"""Unit tests of the obs core: sessions, spans, metrics, task collection."""

import os
import threading

import pytest

from repro.obs import (
    ObsPayload,
    TaskContext,
    absorb,
    active_session,
    collect,
    count,
    is_active,
    observation,
    observe,
    span,
    task_context,
    timer,
)
from repro.obs.core import MetricsRegistry, ObsSession, SpanRecord, _NULL


class TestDisabledPath:
    """Everything must be an exact no-op when no session is active."""

    def test_no_session_by_default(self):
        assert not is_active()
        assert active_session() is None

    def test_primitives_are_noops(self):
        assert span("x", a=1) is _NULL
        assert timer("x") is _NULL
        count("lines", 5)
        observe("occupancy", 3)
        assert task_context() is None

    def test_null_context_is_reusable(self):
        with span("a") as a, span("b") as b:
            assert a is b
            assert a.set(answer=42) is a

    def test_collect_without_context_is_inert(self):
        with collect(None) as collector:
            count("lines", 5)
        assert collector.payload() is None
        assert not is_active()

    def test_absorb_without_session_is_noop(self):
        absorb(ObsPayload(spans=[], metrics={"c": {"type": "counter", "value": 1}}))


class TestMetricsRegistry:
    def test_key_rendering_sorts_labels(self):
        assert MetricsRegistry.key("m", {}) == "m"
        assert MetricsRegistry.key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"

    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("lines", 3, scheme="fpc")
        registry.count("lines", 2, scheme="fpc")
        registry.count("lines", 7, scheme="bdi")
        snapshot = registry.snapshot()
        assert snapshot["lines{scheme=fpc}"] == {"type": "counter", "value": 5}
        assert snapshot["lines{scheme=bdi}"]["value"] == 7

    def test_histogram_tracks_count_total_min_max(self):
        registry = MetricsRegistry()
        for value in (4.0, 1.0, 9.0):
            registry.observe("occupancy", value)
        entry = registry.snapshot()["occupancy"]
        assert entry == {
            "type": "histogram",
            "count": 3,
            "total": 14.0,
            "min": 1.0,
            "max": 9.0,
        }

    def test_merge_is_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("c")
        a.observe("h", 2.0)
        b.count("c", 4)
        b.observe("h", 8.0)
        b.observe("only_b", 1.0)
        a.merge(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot["c"]["value"] == 5
        assert snapshot["h"] == {
            "type": "histogram",
            "count": 2,
            "total": 10.0,
            "min": 2.0,
            "max": 8.0,
        }
        assert snapshot["only_b"]["count"] == 1

    def test_gauge_keeps_max(self):
        registry = MetricsRegistry()
        registry.gauge("peak_rss_bytes", 100.0)
        registry.gauge("peak_rss_bytes", 50.0)
        registry.gauge("peak_rss_bytes", 250.0)
        assert registry.snapshot()["peak_rss_bytes"] == {
            "type": "gauge",
            "value": 250.0,
        }

    def test_gauge_merge_is_max_across_processes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("peak_rss_bytes", 300.0)
        b.gauge("peak_rss_bytes", 900.0)
        b.gauge("only_b", 1.0)
        a.merge(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot["peak_rss_bytes"] == {"type": "gauge", "value": 900.0}
        assert snapshot["only_b"]["value"] == 1.0

    def test_merge_into_empty_copies(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.count("c", 2)
        a.merge(b.snapshot())
        b.count("c", 100)  # must not alias into a
        assert a.snapshot()["c"]["value"] == 2


class TestSpanRecord:
    def test_dict_round_trip(self):
        record = SpanRecord(
            name="encode",
            start_ns=10,
            dur_ns=5,
            pid=123,
            tid=9,
            span_id="123.4",
            parent_id="123.1",
            attrs={"scheme": "fpc"},
        )
        assert SpanRecord.from_dict(record.as_dict()) == record


class TestObservation:
    def test_session_lifecycle_records_root_span(self):
        with observation("my-run") as session:
            assert is_active()
            assert active_session() is session
            assert session.pid == os.getpid()
        assert not is_active()
        roots = [r for r in session.spans if r.parent_id is None]
        assert [r.name for r in roots] == ["my-run"]
        assert roots[0].span_id == session.root_id

    def test_spans_nest_per_thread(self):
        with observation() as session:
            with span("outer") as outer:
                with span("inner", depth=2):
                    pass
        by_name = {r.name: r for r in session.spans}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].parent_id == session.root_id
        assert by_name["inner"].attrs == {"depth": 2}

    def test_span_set_updates_attrs(self):
        with observation() as session:
            with span("s", a=1) as handle:
                handle.set(b=2)
        record = next(r for r in session.spans if r.name == "s")
        assert record.attrs == {"a": 1, "b": 2}

    def test_counters_and_timers_record(self):
        with observation() as session:
            count("lines", 8, scheme="fpc")
            with timer("kernel_ms", kernel="pack"):
                pass
        snapshot = session.metrics.snapshot()
        assert snapshot["lines{scheme=fpc}"]["value"] == 8
        assert snapshot["kernel_ms{kernel=pack}"]["count"] == 1

    def test_nested_observation_reuses_session(self):
        with observation("outer") as outer:
            with observation("inner") as inner:
                assert inner is outer
            assert is_active()  # inner exit must not tear the session down
        assert not is_active()

    def test_exception_still_deactivates(self):
        with pytest.raises(RuntimeError):
            with observation():
                raise RuntimeError("boom")
        assert not is_active()

    def test_thread_spans_parent_to_root_not_other_thread(self):
        with observation() as session:
            with span("main-side"):
                worker = threading.Thread(target=lambda: span("t").__enter__().__exit__(None, None, None))
                worker.start()
                worker.join()
        record = next(r for r in session.spans if r.name == "t")
        assert record.parent_id == session.root_id


class TestCollect:
    def test_same_process_records_into_active_session(self):
        with observation() as session:
            ctx = task_context()
            assert ctx == TaskContext(trace_id=session.trace_id, parent_id=session.root_id)
            with collect(ctx) as collector:
                with span("task-span"):
                    pass
                count("done")
            assert collector.payload() is None
        record = next(r for r in session.spans if r.name == "task-span")
        assert record.parent_id == session.root_id
        assert session.metrics.snapshot()["done"]["value"] == 1

    def test_same_process_stitches_under_dispatch_span(self):
        with observation() as session:
            with span("dispatch") as dispatch:
                ctx = TaskContext(trace_id=session.trace_id, parent_id=dispatch.span_id)
            # simulate a worker thread with an empty stack
            holder = {}

            def worker():
                with collect(ctx):
                    with span("child") as child:
                        holder["child"] = child.span_id

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        record = next(r for r in session.spans if r.name == "child")
        assert record.parent_id == dispatch.span_id

    def test_foreign_process_buffers_into_payload(self):
        # No active session here: mimics a spawn/fork worker after the
        # fork-guard nulled the inherited session.
        ctx = TaskContext(trace_id="t-1", parent_id="1.1")
        with collect(ctx) as collector:
            with span("worker-span"):
                pass
            count("lines", 3)
        payload = collector.payload()
        assert payload is not None
        assert not is_active()
        (entry,) = payload.spans
        assert entry["name"] == "worker-span"
        assert entry["parent"] == "1.1"  # stitched under the dispatch site
        assert payload.metrics["lines"]["value"] == 3

    def test_forked_copy_of_session_is_not_recorded_into(self):
        with observation() as session:
            stale = ObsSession(label="pretend-parent", trace_id=session.trace_id)
            stale.pid = session.pid - 1  # looks like it came from another process
            import repro.obs.core as core

            core._SESSION = stale
            try:
                ctx = TaskContext(trace_id=session.trace_id, parent_id="9.9")
                with collect(ctx) as collector:
                    count("lines", 2)
                payload = collector.payload()
            finally:
                core._SESSION = session
        assert payload is not None  # buffered, not written into the stale copy
        assert payload.metrics["lines"]["value"] == 2
        assert stale.metrics.snapshot() == {}

    def test_absorb_merges_spans_and_metrics(self):
        payload = ObsPayload(
            spans=[
                {
                    "name": "w",
                    "start_ns": 1,
                    "dur_ns": 2,
                    "pid": 999,
                    "tid": 1,
                    "id": "999.1",
                    "parent": "1.1",
                    "attrs": {},
                }
            ],
            metrics={"lines": {"type": "counter", "value": 4}},
        )
        with observation() as session:
            count("lines", 1)
            absorb(payload)
            absorb(None)  # same-process tasks ship None
        assert any(r.pid == 999 for r in session.spans)
        assert session.metrics.snapshot()["lines"]["value"] == 5


class TestPeakMemory:
    def test_gauge_primitive_requires_session(self):
        from repro.obs import gauge

        gauge("peak_rss_bytes", 123.0)  # no session: must be a silent no-op
        with observation("gauges") as session:
            gauge("peak_rss_bytes", 10.0, role="worker")
            gauge("peak_rss_bytes", 40.0, role="worker")
        entry = session.metrics.snapshot()["peak_rss_bytes{role=worker}"]
        assert entry == {"type": "gauge", "value": 40.0}

    def test_peak_rss_bytes_reports_plausible_value(self):
        from repro.obs import peak_rss_bytes

        peak = peak_rss_bytes()
        if peak is None:
            pytest.skip("no VmHWM or resource.getrusage on this platform")
        # A live CPython process has peaked above 1 MiB and below 1 TiB.
        assert 1 << 20 < peak < 1 << 40
