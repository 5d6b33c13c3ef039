"""Tests of the parallel evaluation engine.

The engine's contract is *bit-identical* results for every ``n_jobs`` value:
chunk metrics are reduced in submission order and Monte-Carlo disturbance
streams are keyed by (seed, unit, chunk), so neither float accumulation nor
sampling may depend on the worker count.  The property tests below assert
exact equality (``WriteMetrics`` dataclass equality, no ``approx``) between
the serial fallback and a four-worker pool for every registered scheme.
"""

import pytest

from repro.coding import available_schemes, coset_encoder, make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import ConfigurationError
from repro.core.metrics import WriteMetrics
from repro.evaluation.parallel import ParallelRunner, WorkUnit, resolve_n_jobs, shared_runner
from repro.evaluation.runner import (
    evaluate_benchmarks,
    evaluate_schemes,
    evaluate_trace,
)
from repro.evaluation.sweeps import compression_coverage, granularity_sweep
from repro.obs import absorb, observation

#: Small chunks so every work unit splits into several shards.
CONFIG = EvaluationConfig(chunk_size=32)
#: Monte-Carlo disturbance sampling exercises the seeded RNG streams.
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)


def _scheme_units(trace, config):
    return [
        WorkUnit(name, make_scheme(name), trace, config)
        for name in available_schemes()
    ]


class Stream:
    """A trace seen only through ``chunks``: a streaming unit.

    With a ``log`` it appends ``("read", name)`` when its first chunk is read.
    """

    def __init__(self, trace, log=None, name="stream"):
        self.name = name
        self._trace = trace
        self._log = log

    def chunks(self, chunk_size):
        for chunk_index, chunk in enumerate(self._trace.chunks(chunk_size)):
            if chunk_index == 0 and self._log is not None:
                self._log.append(("read", self.name))
            yield chunk


def record_submissions(monkeypatch, log):
    """Append ``("submit", task)`` to ``log`` for every task a runner hands its pool."""
    pool_of = ParallelRunner._pool

    def recording_pool(runner):
        pool = pool_of(runner)

        class Recorder:
            def submit(self, worker, item):
                log.append(("submit", item))
                return pool.submit(worker, item)

        return Recorder()

    monkeypatch.setattr(ParallelRunner, "_pool", recording_pool)


class TestResolveNJobs:
    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(7) == 7

    @pytest.mark.parametrize("value", [None, 0, -1])
    def test_all_cores_aliases(self, value):
        assert resolve_n_jobs(value) >= 1

    def test_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(-2)


class TestBitIdenticalAcrossWorkers:
    def test_every_registered_scheme(self, gcc_trace):
        """n_jobs=4 must reproduce n_jobs=1 exactly, for all 16 schemes."""
        trace = gcc_trace[:128]
        serial = ParallelRunner(n_jobs=1).run(_scheme_units(trace, CONFIG))
        parallel = ParallelRunner(n_jobs=4).run(_scheme_units(trace, CONFIG))
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name] == parallel[name], name

    def test_every_registered_scheme_monte_carlo(self, gcc_trace):
        """The sampled-disturbance path must also be scheduling-independent."""
        trace = gcc_trace[:128]
        serial = ParallelRunner(n_jobs=1).run(_scheme_units(trace, MC_CONFIG))
        parallel = ParallelRunner(n_jobs=4).run(_scheme_units(trace, MC_CONFIG))
        for name in serial:
            assert serial[name] == parallel[name], name
            # Sampling must actually have produced integer error counts.
            assert serial[name].disturbance_errors == int(serial[name].disturbance_errors)

    def test_monte_carlo_streams_differ_per_unit(self, gcc_trace):
        """Distinct work units draw from distinct spawned RNG streams."""
        trace = gcc_trace[:128]
        encoder = make_scheme("baseline")
        units = [WorkUnit(i, encoder, trace, MC_CONFIG) for i in range(2)]
        first, second = ParallelRunner(n_jobs=1).map(units)
        assert first.disturbance_errors != second.disturbance_errors


class TestRunnerSemantics:
    def test_map_matches_evaluate_trace(self, gcc_trace):
        trace = gcc_trace[:96]
        encoders = [make_scheme("baseline"), make_scheme("wlcrc-16")]
        units = [WorkUnit(e.name, e, trace, CONFIG) for e in encoders]
        mapped = ParallelRunner(n_jobs=1).map(units)
        for index, (encoder, metrics) in enumerate(zip(encoders, mapped)):
            assert metrics == evaluate_trace(encoder, trace, CONFIG, unit_index=index)

    def test_shared_keys_are_merged_in_order(self, gcc_trace, libq_trace):
        encoder = make_scheme("baseline")
        units = [
            WorkUnit("total", encoder, gcc_trace[:64], CONFIG),
            WorkUnit("total", encoder, libq_trace[:64], CONFIG),
        ]
        runner = ParallelRunner(n_jobs=1)
        reduced = runner.run(units)
        assert set(reduced) == {"total"}
        expected = WriteMetrics.combine(runner.map(units))
        assert reduced["total"] == expected

    def test_streaming_and_materialised_units_shard_alike(self, gcc_trace):
        """One task per full chunk (the tail after it too), each window
        carrying its chunk's lines and RNG stream."""
        trace = gcc_trace[:100]

        class Source:
            name = "src"

            def chunks(self, chunk_size):
                return trace.chunks(chunk_size)

        encoder = make_scheme("baseline")
        runner = ParallelRunner(n_jobs=1)
        materialised = list(runner._shards([WorkUnit("m", encoder, trace, MC_CONFIG)]))
        streamed = list(runner._shards([WorkUnit("s", encoder, Source(), MC_CONFIG)]))
        ranges = [(0, 0, 32), (1, 32, 64), (2, 64, 96), (3, 96, 100)]
        for shards in (materialised, streamed):
            assert [len(s.windows) for s in shards] == [1, 1, 1, 1]
            windows = [w for s in shards for w in s.windows]
            assert [(w.chunk_index, w.start, w.stop) for w in windows] == ranges
            assert [w.stream.spawn_key for w in windows] == [(0, c) for c, _, _ in ranges]
            for window in windows:
                assert window.chunk.new == trace.new[window.start:window.stop]
                assert window.chunk.old == trace.old[window.start:window.stop]

    def test_full_chunks_dispatch_without_reading_ahead(self, gcc_trace):
        """A full chunk is a task at once: a stream is read no further."""
        reads = []

        class Source:
            name = "src"

            def chunks(self, chunk_size):
                for chunk in gcc_trace[:96].chunks(chunk_size):
                    reads.append(len(chunk))
                    yield chunk

        unit = WorkUnit("s", make_scheme("baseline"), Source(), CONFIG)
        tasks = ParallelRunner(n_jobs=1)._shards([unit])
        next(tasks)
        assert reads == [32]

    def test_two_chunks_in_one_task_still_go_to_the_pool(self, gcc_trace):
        """Pooling counts chunks, not tasks: a warm-up call of two short units
        packs into one task and must still start the workers."""
        unit = WorkUnit("warm", make_scheme("baseline"), gcc_trace[:2], CONFIG)
        with ParallelRunner(n_jobs=2) as runner:
            assert [len(s.windows) for s in runner._shards([unit, unit])] == [2]
            runner.map([unit, unit])
            assert runner._executor is not None

    def test_executor_chunksize_is_gone(self):
        # Tasks pack short chunks up to chunk_size lines; there is no batching knob.
        with pytest.raises(TypeError, match="executor_chunksize"):
            ParallelRunner(n_jobs=2, executor_chunksize=4)

    def test_empty_units(self):
        assert ParallelRunner(n_jobs=1).run([]) == {}
        assert ParallelRunner(n_jobs=4).run([]) == {}

    def test_starmap_preserves_order(self):
        tasks = [(i,) for i in range(20)]
        assert ParallelRunner(n_jobs=1).starmap(abs, tasks) == list(range(20))
        assert ParallelRunner(n_jobs=3).starmap(abs, tasks) == list(range(20))

    def test_starmap_ships_traces_by_transport(self, gcc_trace, monkeypatch):
        """WriteTrace args ride the zero-copy transport, results unchanged:
        a spill file by default, pickling when the spill cannot be written."""
        import errno

        import repro.traces.transport

        def no_space(trace, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        traces = {"gcc": gcc_trace[:96]}
        serial = compression_coverage(traces, runner=ParallelRunner(1))
        shipped = {}
        for kind in ("spill", "pickle"):
            if kind == "pickle":
                monkeypatch.setattr(repro.traces.transport, "save_trace", no_space)
            with observation() as session:
                shipped[kind] = compression_coverage(traces, runner=ParallelRunner(4))
            # eight coverage cells share the trace: exported once, reused after
            snapshot = session.metrics.snapshot()
            assert snapshot[f"trace_export{{kind={kind}}}"]["value"] == 1
            assert snapshot["trace_export_reused"]["value"] == 7
        assert serial == shipped["spill"] == shipped["pickle"]

    def test_starmap_transport_with_persistent_runner(self, gcc_trace):
        from repro.evaluation.sweeps import compression_coverage

        traces = {"gcc": gcc_trace[:96]}
        serial = compression_coverage(traces, runner=ParallelRunner(1))
        with ParallelRunner(2) as runner:
            first = compression_coverage(traces, runner=runner)
            second = compression_coverage(traces, runner=runner)
        assert serial == first == second

    def test_transport_knob_is_gone(self):
        # Each trace decides its transport (mmap, else spill, else pickle).
        with pytest.raises(TypeError, match="transport"):
            ParallelRunner(n_jobs=2, transport="pickle")

    @pytest.mark.parametrize("backend", ["thread"])
    def test_materialised_call_keeps_at_most_window_in_flight(self, gcc_trace, backend):
        """Thread tasks carry their chunks, so a materialised call on the
        thread backend is windowed like a stream (the process backend's
        descriptor tasks are not: see the test below)."""
        encoder = make_scheme("baseline")
        trace = gcc_trace[:192]  # six shards
        with observation() as session:
            result = ParallelRunner(2, window=2, backend=backend).map(
                [WorkUnit("k", encoder, trace, CONFIG)]
            )[0]
        occupancy = session.metrics.snapshot()["window_occupancy"]
        assert occupancy["count"] == 6  # one observation per submitted shard
        assert occupancy["max"] == 2
        assert result == evaluate_trace(encoder, trace, CONFIG)

    def test_descriptor_tasks_are_not_held_back(self, gcc_trace, monkeypatch):
        """A spill-backed task ships a descriptor, not lines: all six tasks
        reach the pool before the first result is reduced, and the window
        never stalls."""
        log = []
        record_submissions(monkeypatch, log)

        def reduce_and_log(payload):
            log.append(("reduce", None))
            absorb(payload)

        monkeypatch.setattr("repro.evaluation.parallel.absorb", reduce_and_log)
        encoder = make_scheme("baseline")
        trace = gcc_trace[:192]  # six shards
        with observation() as session:
            result = ParallelRunner(2, window=2).map([WorkUnit("k", encoder, trace, CONFIG)])[0]
        assert [kind for kind, _ in log].index("reduce") == 6
        assert all(
            window.descriptor is not None for _, task in log[:6] for window in task.windows
        )
        snapshot = session.metrics.snapshot()
        assert snapshot["trace_export{kind=spill}"]["value"] == 1
        assert "backpressure_stalls" not in snapshot
        assert result == evaluate_trace(encoder, trace, CONFIG)

    def test_pending_descriptor_tasks_stop_at_the_cap(self, gcc_trace, monkeypatch):
        """More descriptor tasks than ``16 x window``: the parent holds at
        most that many pending, not the whole trace, and the result is the
        serial one."""
        log = []
        record_submissions(monkeypatch, log)

        def reduce_and_log(payload):
            log.append(("reduce", None))
            absorb(payload)

        monkeypatch.setattr("repro.evaluation.parallel.absorb", reduce_and_log)
        config = EvaluationConfig(chunk_size=8)
        encoder = make_scheme("baseline")
        result = ParallelRunner(2, window=1).map([WorkUnit("k", encoder, gcc_trace, config)])[0]
        tasks = [task for kind, task in log if kind == "submit"]
        assert len(tasks) == 25
        assert all(window.descriptor is not None for task in tasks for window in task.windows)
        pending = [0]
        for kind, _ in log:
            pending.append(pending[-1] + (1 if kind == "submit" else -1))
        assert max(pending) == 16
        assert result == evaluate_trace(encoder, gcc_trace, config)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_streamed_call_keeps_at_most_window_in_flight(self, gcc_trace, backend):
        """The memory bound: a stream's chunks carry their lines, so at most
        ``window`` of them are in flight on either backend."""
        encoder = make_scheme("baseline")
        trace = gcc_trace[:192]  # six chunks
        with observation() as session:
            result = ParallelRunner(2, window=2, backend=backend).map(
                [WorkUnit("k", encoder, Stream(trace), CONFIG)]
            )[0]
        snapshot = session.metrics.snapshot()
        assert snapshot["window_occupancy"]["count"] == 6  # one per submitted chunk
        assert snapshot["window_occupancy"]["max"] == 2
        assert snapshot["backpressure_stalls"]["value"] > 0
        assert result == evaluate_trace(encoder, trace, CONFIG)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_materialised_tasks_dispatch_before_streamed_chunks(
        self, gcc_trace, backend, monkeypatch
    ):
        """Ready work first.  Of units ``[S0, M1, S2, M3]``, M1 and M3 share
        one encoder and pack into one task; their two chunks decide pooling,
        so that task reaches the pool before S0's first chunk is read.  Each
        unit keeps its position's disturbance streams."""
        log = []
        record_submissions(monkeypatch, log)
        config = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=3)
        shared = make_scheme("wlcrc-16")
        units = [
            WorkUnit(0, make_scheme("baseline"), Stream(gcc_trace[60:160], log, "S0"), config),
            WorkUnit(1, shared, gcc_trace[:30], config),
            WorkUnit(2, shared, Stream(gcc_trace[160:200], log, "S2"), config),
            WorkUnit(3, shared, gcc_trace[30:60], config),
        ]
        with ParallelRunner(2, backend=backend) as runner:
            mapped = runner.map(units)

        ready = [
            (at, task)
            for at, (kind, task) in enumerate(log)
            if kind == "submit" and all(w.unit_index in (1, 3) for w in task.windows)
        ]
        assert [[(w.unit_index, w.chunk_index) for w in task.windows] for _, task in ready] == [
            [(1, 0), (3, 0)]
        ]
        assert all(at < log.index(("read", "S0")) for at, _ in ready)
        assert log.index(("read", "S0")) < log.index(("read", "S2"))
        if backend == "process":
            assert all(w.descriptor is not None for _, task in ready for w in task.windows)
        for i, unit in enumerate(units):
            assert mapped[i] == evaluate_trace(unit.encoder, unit.trace, config, unit_index=i)


class TestRewiredHelpers:
    def test_evaluate_schemes_jobs_equivalence(self, gcc_trace):
        encoders = [make_scheme("baseline"), make_scheme("fnw")]
        serial = evaluate_schemes(encoders, gcc_trace[:64], CONFIG)
        parallel = evaluate_schemes(encoders, gcc_trace[:64], CONFIG, n_jobs=2)
        assert serial == parallel

    def test_evaluate_benchmarks_jobs_equivalence(self, gcc_trace, libq_trace):
        traces = {"gcc": gcc_trace[:64], "libq": libq_trace[:64]}
        encoder = make_scheme("baseline")
        serial = evaluate_benchmarks(encoder, traces, CONFIG)
        parallel = evaluate_benchmarks(encoder, traces, CONFIG, n_jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("helper", ["evaluate_schemes", "evaluate_benchmarks"])
    def test_helpers_bind_task_timeout_for_their_call_only(self, gcc_trace, helper):
        """The helper's watchdog applies to its own call: a caller's runner
        gets its own ``task_timeout`` back afterwards."""
        encoder = make_scheme("baseline")
        trace = gcc_trace[:64]
        for before in (None, 9.0):
            runner = ParallelRunner(n_jobs=1, task_timeout=before)
            seen = []
            inner_map = runner.map
            runner.map = lambda units: seen.append(runner.task_timeout) or inner_map(units)
            if helper == "evaluate_schemes":
                evaluate_schemes([encoder], trace, CONFIG, runner=runner, task_timeout=5.0)
            else:
                evaluate_benchmarks(
                    encoder, {"gcc": trace}, CONFIG, runner=runner, task_timeout=5.0
                )
            assert seen == [5.0]
            assert runner.task_timeout == before

    def test_shared_runner_rebinds_task_timeout(self):
        """A watchdog left on the shared runner by one caller never applies
        to the next."""
        assert shared_runner(1, "process", task_timeout=3.0).task_timeout == 3.0
        assert shared_runner(1, "process").task_timeout is None

    def test_granularity_sweep_jobs_equivalence(self, gcc_trace, libq_trace):
        """Acceptance: >= 4 granularities, parallel identical to serial."""
        traces = {"gcc": gcc_trace[:96], "libq": libq_trace[:96]}
        def factory(g, em):
            return coset_encoder("6cosets", g, em)
        granularities = (8, 16, 32, 64)
        serial = granularity_sweep(factory, granularities, traces, CONFIG)
        parallel = granularity_sweep(factory, granularities, traces, CONFIG, n_jobs=4)
        assert list(serial) == list(granularities)
        for granularity in granularities:
            assert serial[granularity] == parallel[granularity]

    def test_granularity_sweep_monte_carlo_equivalence(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        def factory(g, em):
            return coset_encoder("6cosets", g, em)
        serial = granularity_sweep(factory, (16, 32), traces, MC_CONFIG)
        parallel = granularity_sweep(factory, (16, 32), traces, MC_CONFIG, n_jobs=2)
        assert serial == parallel

    def test_compression_coverage_jobs_equivalence(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        assert compression_coverage(traces) == compression_coverage(traces, n_jobs=2)
