"""Tests of the zero-copy trace transport and its engine integration.

The transport's contract is the engine's contract: whatever moves the chunk
data -- pickling, a shared-memory segment, or an mmap'd corpus file -- the
reduced :class:`WriteMetrics` are bit-identical for every ``n_jobs``.  The
property test at the bottom asserts exactly the ISSUE's acceptance criterion:
mmap-backed and in-memory traces produce identical metrics at ``n_jobs=1``
and ``n_jobs=4``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import TraceError
from repro.core.line import LineBatch
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_trace
from repro.obs import observation
from repro.traces import transport as transport_module
from repro.traces.store import load_trace, save_trace
from repro.traces.transport import (
    MmapTraceDescriptor,
    ShmTraceDescriptor,
    TraceExporter,
    attach_trace,
    shared_memory_available,
)
from repro.workloads.generator import generate_benchmark_trace
from repro.workloads.trace import WriteTrace

CONFIG = EvaluationConfig(chunk_size=32)
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)

needs_shm = pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")


def _export_kinds(session):
    """``{kind: count}`` of the ``trace_export`` counter in an observation."""
    prefix = "trace_export{kind="
    return {
        key[len(prefix):-1]: entry["value"]
        for key, entry in session.metrics.snapshot().items()
        if key.startswith(prefix)
    }


def _trace(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return WriteTrace(
        old=LineBatch.random(n, rng),
        new=LineBatch.random(n, rng),
        addresses=np.arange(n, dtype=np.uint64) * 64,
        name="transport-unit",
    )


class TestExporter:
    @needs_shm
    def test_shm_roundtrip(self):
        trace = _trace()
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, ShmTraceDescriptor)
            attached = attach_trace(descriptor)
            assert attached.old == trace.old
            assert attached.new == trace.new
            assert np.array_equal(attached.addresses, trace.addresses)

    def test_mmap_descriptor_for_corpus_trace(self, tmp_path):
        trace = load_trace(save_trace(_trace(), tmp_path / "t.wtrc"))
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, MmapTraceDescriptor)
            attached = attach_trace(descriptor)
            assert attached.old == trace.old
            assert attached.new == trace.new

    def test_exports_nothing_without_shared_memory(self, monkeypatch):
        """An in-memory trace on a host without shared memory is pickled."""
        monkeypatch.setattr(transport_module, "_shm", None)
        with TraceExporter() as exporter:
            assert exporter.export(_trace()) is None

    @needs_shm
    def test_export_is_cached_per_trace_object(self):
        trace = _trace()
        with TraceExporter() as exporter:
            assert exporter.export(trace) is exporter.export(trace)
            assert len(exporter._by_trace) == 1

    def test_sliced_corpus_trace_falls_back(self, tmp_path):
        """A slice no longer matches the file layout, so mmap is refused."""
        trace = load_trace(save_trace(_trace(), tmp_path / "t.wtrc"))
        part = trace[:10]
        with TraceExporter() as exporter:
            assert not isinstance(exporter.export(part), MmapTraceDescriptor)

    def test_overwritten_corpus_file_gets_fresh_descriptor(self, tmp_path):
        """Same path + same length but new contents must not hit a stale cache."""
        path = tmp_path / "t.wtrc"
        first = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            d1 = exporter.export(first)
            attach_trace(d1)
        import os

        save_trace(_trace(seed=2), path)
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        second = load_trace(path)
        with TraceExporter() as exporter:
            d2 = exporter.export(second)
            assert d2 != d1  # different descriptor => no stale cache hit
            assert attach_trace(d2).new == second.new

    def test_export_refuses_path_overwritten_after_load(self, tmp_path):
        """A loaded trace whose file was since replaced must not ship its path."""
        import os

        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        save_trace(_trace(seed=2), path)  # same layout, new inode/contents
        os.utime(path, ns=(3, 3))
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            # falls back to shm (or pickling), never an mmap of the new file
            assert not isinstance(descriptor, MmapTraceDescriptor)
            if descriptor is not None:
                assert attach_trace(descriptor).new == trace.new

    def test_attach_rejects_file_overwritten_after_export(self, tmp_path):
        """A same-layout overwrite between export and attach must error."""
        import os

        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            save_trace(_trace(seed=2), path)  # same length => same layout
            os.utime(path, ns=(2, 2))
            with pytest.raises(TraceError, match="changed since it was exported"):
                attach_trace(descriptor)

    @needs_shm
    def test_cached_export_of_a_rewritten_file_is_renewed(self, tmp_path):
        """A persistent exporter must not re-ship a version the file lost."""
        import os

        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            assert isinstance(exporter.export(trace), MmapTraceDescriptor)
            save_trace(_trace(seed=2), path)
            os.utime(path, ns=(4, 4))
            renewed = exporter.export(trace)
            assert isinstance(renewed, ShmTraceDescriptor)
            assert attach_trace(renewed).new == trace.new

    def test_attachments_keep_one_version_per_path(self, tmp_path):
        """Rewriting a corpus file in place must not pin every old mapping
        in the worker's attachment cache."""
        import os

        path = tmp_path / "t.wtrc"
        descriptors = []
        for version in (1, 2, 3):
            save_trace(_trace(seed=version), path)
            os.utime(path, ns=(version, version))
            with TraceExporter() as exporter:
                descriptors.append(exporter.export(load_trace(path)))
            assert attach_trace(descriptors[-1]).new == _trace(seed=version).new
        cached = [d for d in transport_module._ATTACHED if getattr(d, "path", None) == str(path)]
        assert cached == [descriptors[-1]]

    @needs_shm
    def test_evicted_shm_attachments_close_quietly(self, monkeypatch):
        """Evicting an attachment closes its segment after dropping the trace
        that views it, so no finaliser reports exported pointers later."""
        import gc
        import sys
        from collections import OrderedDict

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(transport_module, "_ATTACHED", OrderedDict())
        traces = [_trace(n=8, seed=s) for s in range(transport_module._ATTACH_CACHE_SIZE + 4)]
        with TraceExporter() as exporter:
            for trace in traces:
                assert attach_trace(exporter.export(trace)).new == trace.new
            gc.collect()
        assert len(transport_module._ATTACHED) == transport_module._ATTACH_CACHE_SIZE
        assert unraisable == []

    def test_policy_argument_is_gone(self):
        # The trace decides its transport (mmap, else shm, else pickle).
        with pytest.raises(TypeError):
            TraceExporter("pickle")

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(TraceError):
            attach_trace(object())


class TestEngineTransports:
    """Every transport the default exporter picks agrees with the serial reference.

    The parameter names the transport the engine must pick, read back from
    the ``trace_export`` counter: shared memory for an in-memory trace, mmap
    for a corpus-backed one, shared memory for a corpus slice the file cannot
    describe, and pickling on a host without shared memory.
    """

    @pytest.mark.parametrize("kind", [pytest.param("shm", marks=needs_shm), "pickle"])
    def test_in_memory_trace(self, gcc_trace, kind, monkeypatch):
        if kind == "pickle":
            monkeypatch.setattr(transport_module, "_shm", None)
        trace = gcc_trace[:128]
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, trace, CONFIG)
        with observation() as session:
            result = ParallelRunner(4).map([WorkUnit("k", encoder, trace, CONFIG)])[0]
        assert _export_kinds(session) == {kind: 1}
        assert result == reference

    @pytest.mark.parametrize("kind", ["mmap", pytest.param("shm", marks=needs_shm), "pickle"])
    def test_corpus_backed_trace(self, gcc_trace, kind, tmp_path, monkeypatch):
        if kind == "pickle":
            monkeypatch.setattr(transport_module, "_shm", None)
        corpus = load_trace(save_trace(gcc_trace[:160], tmp_path / "t.wtrc"))
        trace = corpus if kind == "mmap" else corpus[:128]
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, gcc_trace[: len(trace)], CONFIG)
        with observation() as session:
            result = ParallelRunner(4).map([WorkUnit("k", encoder, trace, CONFIG)])[0]
        assert _export_kinds(session) == {kind: 1}
        assert result == reference

    def test_monte_carlo_streams_survive_transport(self, gcc_trace, tmp_path):
        in_memory = gcc_trace[:128]
        corpus = load_trace(save_trace(in_memory, tmp_path / "t.wtrc"))
        encoder = make_scheme("baseline")
        reference = evaluate_trace(encoder, in_memory, MC_CONFIG)
        for trace in (in_memory, corpus):  # shared memory, then mmap
            result = ParallelRunner(4).map([WorkUnit("k", encoder, trace, MC_CONFIG)])[0]
            assert result == reference, trace.mmap_path


class TestInlineShortCircuit:
    def test_single_shard_unit_skips_export(self, gcc_trace):
        """One-chunk work runs inline; no shm copy or parent attachment."""
        before = len(transport_module._ATTACHED)
        runner = ParallelRunner(4)
        trace = gcc_trace[:16]  # a single chunk under CONFIG
        reference = evaluate_trace(make_scheme("baseline"), trace, CONFIG)
        with observation() as session:
            result = runner.map([WorkUnit("k", make_scheme("baseline"), trace, CONFIG)])[0]
        assert result == reference
        assert _export_kinds(session) == {}
        assert len(transport_module._ATTACHED) == before


class TestPersistentPool:
    def test_persistent_runner_reuses_exports(self, gcc_trace):
        """Repeated run() calls over the same trace share one shm segment."""
        encoder = make_scheme("baseline")
        trace = gcc_trace[:128]
        units = [WorkUnit("k", encoder, trace, CONFIG)]
        with ParallelRunner(2) as runner:
            first = runner.run(units)["k"]
            assert len(runner._exporter._by_trace) == 1
            descriptor = runner._exporter.export(trace)
            second = runner.run(units)["k"]
            # no re-export: same cached descriptor, still exactly one entry
            assert runner._exporter.export(trace) is descriptor
            assert len(runner._exporter._by_trace) == 1
            assert first == second
        assert runner._exporter is None  # released on close

    def test_persistent_runner_prunes_stale_exports(self, gcc_trace, libq_trace):
        """Looping over ever-new traces must not pin old shm segments."""
        encoder = make_scheme("baseline")
        with ParallelRunner(2) as runner:
            runner.run([WorkUnit("k", encoder, gcc_trace[:128], CONFIG)])
            runner.run([WorkUnit("k", encoder, libq_trace[:128], CONFIG)])
            # only the latest run's trace remains exported
            assert len(runner._exporter._by_trace) == 1
            (kept,) = [t for t, _, _ in runner._exporter._by_trace.values()]
            assert kept.new == libq_trace[:128].new

    def test_broken_pool_self_heals(self, gcc_trace):
        """A dead pool is rebuilt mid-run and the lost work resubmitted."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class _BrokenExecutor:
            def submit(self, *args, **kwargs):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, *args, **kwargs):
                pass

        encoder = make_scheme("baseline")
        units = [WorkUnit("k", encoder, gcc_trace[:128], CONFIG)]
        runner = ParallelRunner(2, persistent=True, retry_backoff_s=0.001)
        broken = _BrokenExecutor()
        runner._executor = broken
        reference = evaluate_trace(encoder, gcc_trace[:128], CONFIG)
        # The run completes despite starting on a dead pool: the engine
        # discards it, builds a fresh one and resubmits the lost shards.
        assert runner.run(units)["k"] == reference
        assert runner._executor is not broken  # broken pool discarded
        assert runner.run(units)["k"] == reference  # still healthy after
        runner.close()

    def test_pool_survives_across_runs(self, gcc_trace):
        encoder = make_scheme("baseline")
        units = [WorkUnit("k", encoder, gcc_trace[:96], CONFIG)]
        with ParallelRunner(2) as runner:
            first = runner.run(units)["k"]
            executor = runner._executor
            assert executor is not None
            second = runner.run(units)["k"]
            assert runner._executor is executor
            assert first == second
        assert runner._executor is None  # closed on exit

    def test_runner_reverts_to_one_shot_after_with_block(self, gcc_trace):
        runner = ParallelRunner(2)
        units = [WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)]
        with runner:
            runner.run(units)
        assert runner.persistent is False
        runner.run(units)  # one-shot again: nothing left running
        assert runner._executor is None
        assert runner._exporter is None

    def test_nested_with_blocks_are_depth_counted(self, gcc_trace):
        runner = ParallelRunner(2)
        units = [WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)]
        with runner:
            with runner:
                runner.run(units)
            # inner exit must not tear the pool down mid-outer-block
            assert runner.persistent is True
            assert runner._executor is not None
        assert runner.persistent is False
        assert runner._executor is None

    def test_one_shot_runner_keeps_teardown_semantics(self, gcc_trace):
        runner = ParallelRunner(2)
        runner.run([WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)])
        assert runner._executor is None

    def test_close_is_idempotent(self):
        runner = ParallelRunner(2, persistent=True)
        runner.close()
        runner.close()


class TestBitIdenticalProperty:
    """Acceptance: mmap-backed == in-memory, at n_jobs=1 and n_jobs=4."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        length=st.integers(min_value=1, max_value=96),
        scheme=st.sampled_from(["baseline", "wlcrc-16", "6cosets"]),
    )
    def test_mmap_and_memory_agree_for_all_n_jobs(self, tmp_path_factory, seed, length, scheme):
        tmp_path = tmp_path_factory.mktemp("prop")
        in_memory = generate_benchmark_trace("gcc", length, seed)
        mmap_backed = load_trace(save_trace(in_memory, tmp_path / "t.wtrc"))
        encoder = make_scheme(scheme)
        results = [
            ParallelRunner(n_jobs).map([WorkUnit("k", encoder, trace, CONFIG)])[0]
            for n_jobs in (1, 4)
            for trace in (in_memory, mmap_backed)
        ]
        assert all(result == results[0] for result in results[1:])
