"""Tests of the zero-copy trace transport and its engine integration.

The transport's contract is the engine's contract: whatever moves the chunk
data -- pickling, an mmap'd spill file, or an mmap'd corpus file -- the
reduced :class:`WriteMetrics` are bit-identical for every ``n_jobs``.  The
property test at the bottom asserts that a corpus-backed trace and the same
trace in memory (which spills) produce identical metrics at ``n_jobs=1`` and
``n_jobs=4``.
"""

import errno
import gc
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

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
from repro.traces.transport import MmapTraceDescriptor, TraceExporter, attach_trace
from repro.workloads.generator import generate_benchmark_trace
from repro.workloads.trace import WriteTrace

CONFIG = EvaluationConfig(chunk_size=32)
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)


def _fail_spills(monkeypatch):
    """Make every spill write fail as on a full temporary directory."""

    def no_space(trace, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(transport_module, "save_trace", no_space)


def _spill_files(exporter):
    """The spill files ``exporter`` currently holds, in export order."""
    return [Path(d.path) for _, d, spilled in exporter._by_trace.values() if spilled]


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
    def test_spill_roundtrip(self):
        trace = _trace()
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, MmapTraceDescriptor)
            assert _spill_files(exporter) == [Path(descriptor.path)]
            assert Path(descriptor.path).parent.name.startswith("repro-spill-")
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

    def test_exports_nothing_when_the_spill_fails(self, monkeypatch, tmp_path):
        """An in-memory trace whose spill cannot be written is pickled:
        a full temporary directory, then one that cannot be created in."""
        with observation() as session:
            with monkeypatch.context() as patch:
                _fail_spills(patch)
                with TraceExporter() as exporter:
                    assert exporter.export(_trace()) is None
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
            with TraceExporter() as exporter:
                assert exporter.export(_trace()) is None
        assert _export_kinds(session) == {"pickle": 2}
        assert "trace_spill_bytes" not in session.metrics.snapshot()

    def test_export_is_cached_per_trace_object(self):
        trace = _trace()
        with TraceExporter() as exporter:
            assert exporter.export(trace) is exporter.export(trace)
            assert len(exporter._by_trace) == 1
            assert len(_spill_files(exporter)) == 1

    def test_sliced_corpus_trace_falls_back(self, tmp_path):
        """A slice no longer matches the file layout, so it spills."""
        trace = load_trace(save_trace(_trace(), tmp_path / "t.wtrc"))
        part = trace[:10]
        with TraceExporter() as exporter:
            descriptor = exporter.export(part)
            assert _spill_files(exporter) == [Path(descriptor.path)]
            assert attach_trace(descriptor).new == part.new

    def test_overwritten_corpus_file_gets_fresh_descriptor(self, tmp_path):
        """Same path + same length but new contents must not hit a stale cache."""
        path = tmp_path / "t.wtrc"
        first = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            d1 = exporter.export(first)
            attach_trace(d1)
        save_trace(_trace(seed=2), path)
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        second = load_trace(path)
        with TraceExporter() as exporter:
            d2 = exporter.export(second)
            assert d2 != d1  # different descriptor => no stale cache hit
            assert attach_trace(d2).new == second.new

    def test_export_refuses_path_overwritten_after_load(self, tmp_path):
        """A loaded trace whose file was since replaced must not ship its path."""
        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        save_trace(_trace(seed=2), path)  # same layout, new inode/contents
        os.utime(path, ns=(3, 3))
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            # spills the trace's own arrays, never an mmap of the new file
            assert _spill_files(exporter) == [Path(descriptor.path)]
            assert attach_trace(descriptor).new == trace.new

    def test_attach_rejects_file_overwritten_after_export(self, tmp_path):
        """A same-layout overwrite between export and attach must error."""
        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            save_trace(_trace(seed=2), path)  # same length => same layout
            os.utime(path, ns=(2, 2))
            with pytest.raises(TraceError, match="changed since it was exported"):
                attach_trace(descriptor)

    def test_cached_export_of_a_rewritten_file_is_renewed(self, tmp_path):
        """A persistent exporter must not re-ship a version the file lost."""
        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter() as exporter:
            assert exporter.export(trace).path == str(path)
            save_trace(_trace(seed=2), path)
            os.utime(path, ns=(4, 4))
            renewed = exporter.export(trace)
            assert _spill_files(exporter) == [Path(renewed.path)]
            assert attach_trace(renewed).new == trace.new == _trace(seed=1).new

    def test_attachments_keep_one_version_per_path(self, tmp_path):
        """Rewriting a corpus file in place must not pin every old mapping
        in the worker's attachment cache."""
        path = tmp_path / "t.wtrc"
        descriptors = []
        for version in (1, 2, 3):
            save_trace(_trace(seed=version), path)
            os.utime(path, ns=(version, version))
            with TraceExporter() as exporter:
                descriptors.append(exporter.export(load_trace(path)))
            assert attach_trace(descriptors[-1]).new == _trace(seed=version).new
        cached = [d for d in transport_module._ATTACHED if d.path == str(path)]
        assert cached == [descriptors[-1]]

    def test_attach_miss_evicts_mappings_of_deleted_files(self, monkeypatch):
        """A spill file pruned by the parent is never shipped again, so the
        next attach miss drops its mapping instead of pinning the deleted
        file's disk blocks until LRU eviction; live mappings stay."""
        from collections import OrderedDict

        monkeypatch.setattr(transport_module, "_ATTACHED", OrderedDict())
        with TraceExporter() as exporter:
            kept, pruned, third = (exporter.export(_trace(seed=s)) for s in (1, 2, 3))
            attach_trace(kept)
            attach_trace(pruned)
            Path(pruned.path).unlink()
            attach_trace(third)
            assert list(transport_module._ATTACHED) == [kept, third]

    def test_evicted_spill_attachments_close_quietly(self, monkeypatch):
        """More spilled traces than the attachment cache holds: the oldest are
        evicted, and dropping their mappings reports nothing later."""
        from collections import OrderedDict

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(transport_module, "_ATTACHED", OrderedDict())
        traces = [_trace(n=8, seed=s) for s in range(transport_module._ATTACH_CACHE_SIZE + 4)]
        descriptors = []
        with TraceExporter() as exporter:
            for trace in traces:
                descriptors.append(exporter.export(trace))
                assert attach_trace(descriptors[-1]).new == trace.new
            assert len(_spill_files(exporter)) == len(traces)
            gc.collect()
        assert transport_module._ATTACH_CACHE_SIZE == 16
        assert list(transport_module._ATTACHED) == descriptors[-16:]
        gc.collect()
        assert unraisable == []

    def test_policy_argument_is_gone(self):
        # The trace decides its transport (mmap, else spill, else pickle).
        with pytest.raises(TypeError):
            TraceExporter("pickle")

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(TraceError):
            attach_trace(object())

    def test_release_and_collection_remove_the_spill_dir(self):
        exporter = TraceExporter()
        directory = Path(exporter.export(_trace()).path).parent
        exporter.release()
        assert not directory.exists()
        exporter = TraceExporter()
        directory = Path(exporter.export(_trace()).path).parent
        del exporter
        gc.collect()
        assert not directory.exists()

    def test_only_the_creating_process_removes_the_spill_dir(self, tmp_path):
        """A forked worker inherits the exporter's finaliser; run from any
        process but the creator, it must leave the parent's files alone."""
        directory = tmp_path / "repro-spill-test"
        directory.mkdir()
        (directory / "1.wtrc").write_bytes(b"spilled")
        transport_module._remove_spill_dir(str(directory), os.getpid() + 1)
        assert (directory / "1.wtrc").read_bytes() == b"spilled"
        transport_module._remove_spill_dir(str(directory), os.getpid())
        assert not directory.exists()


class TestEngineTransports:
    """Every transport the default exporter picks agrees with the serial reference.

    The parameter names the transport the engine must pick, read back from
    the ``trace_export`` counter: a spill for an in-memory trace, mmap for a
    corpus-backed one, a spill for a corpus slice the file cannot describe,
    and pickling when the spill cannot be written.
    """

    @pytest.mark.parametrize("kind", ["spill", "pickle"])
    def test_in_memory_trace(self, gcc_trace, kind, monkeypatch):
        if kind == "pickle":
            _fail_spills(monkeypatch)
        trace = gcc_trace[:128]
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, trace, CONFIG)
        with observation() as session, ParallelRunner(4) as runner:
            result = runner.map([WorkUnit("k", encoder, trace, CONFIG)])[0]
            spill_bytes = [path.stat().st_size for path in _spill_files(runner._exporter)]
        assert _export_kinds(session) == {kind: 1}
        assert len(spill_bytes) == (kind == "spill")
        snapshot = session.metrics.snapshot()
        assert snapshot.get("trace_spill_bytes", {"value": 0})["value"] == sum(spill_bytes)
        assert result == reference

    @pytest.mark.parametrize("kind", ["mmap", "spill", "pickle"])
    def test_corpus_backed_trace(self, gcc_trace, kind, tmp_path, monkeypatch):
        if kind == "pickle":
            _fail_spills(monkeypatch)
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
        for trace in (in_memory, corpus):  # spill, then mmap
            result = ParallelRunner(4).map([WorkUnit("k", encoder, trace, MC_CONFIG)])[0]
            assert result == reference, trace.mmap_path


class TestInlineShortCircuit:
    def test_single_shard_unit_skips_export(self, gcc_trace):
        """One-chunk work runs inline; no spill or parent attachment."""
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
        """Repeated run() calls over the same trace share one spill file."""
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
        """Looping over ever-new traces must not keep old spill files."""
        encoder = make_scheme("baseline")
        with ParallelRunner(2) as runner:
            runner.run([WorkUnit("k", encoder, gcc_trace[:128], CONFIG)])
            (stale,) = _spill_files(runner._exporter)
            runner.run([WorkUnit("k", encoder, libq_trace[:128], CONFIG)])
            # only the latest run's trace remains exported, and on disk
            assert len(runner._exporter._by_trace) == 1
            (kept,) = [t for t, _, _ in runner._exporter._by_trace.values()]
            assert kept.new == libq_trace[:128].new
            (latest,) = _spill_files(runner._exporter)
            assert latest.is_file()
            assert not stale.exists()
        assert not latest.parent.exists()  # close() removes the directory

    def test_unclosed_runner_leaves_no_spill_dir(self, tmp_path):
        """A persistent runner the program never closes still removes its
        spill directory when the interpreter exits."""
        import repro

        script = textwrap.dedent(
            """
            import glob, os, tempfile
            from repro.coding import make_scheme
            from repro.core.config import EvaluationConfig
            from repro.evaluation.parallel import ParallelRunner, WorkUnit
            from repro.workloads.generator import generate_benchmark_trace

            runner = ParallelRunner(2, persistent=True)
            trace = generate_benchmark_trace("gcc", 96, 7)
            config = EvaluationConfig(chunk_size=32)
            runner.map([WorkUnit("k", make_scheme("baseline"), trace, config)])
            assert glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*", "*.wtrc"))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
        assert list(tmp_path.glob("repro-spill-*")) == []

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
    """mmap-backed == in-memory (spilled), at n_jobs=1 and n_jobs=4."""

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
