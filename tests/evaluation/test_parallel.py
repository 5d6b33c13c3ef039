"""Tests of the parallel evaluation engine.

The engine's contract is *bit-identical* results for every ``n_jobs`` value:
chunk metrics are reduced in submission order and Monte-Carlo disturbance
streams are keyed by (seed, unit, chunk), so neither float accumulation nor
sampling may depend on the worker count.  The property tests below assert
exact equality (``WriteMetrics`` dataclass equality, no ``approx``) between
the serial fallback and a four-worker pool for every registered scheme.
"""

import pytest

from repro.coding import available_schemes, make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import ConfigurationError
from repro.core.metrics import WriteMetrics
from repro.coding.ncosets import make_six_cosets
from repro.evaluation.parallel import ParallelRunner, WorkUnit, resolve_n_jobs
from repro.evaluation.runner import (
    evaluate_benchmarks,
    evaluate_schemes,
    evaluate_trace,
)
from repro.evaluation.sweeps import compression_coverage, granularity_sweep

#: Small chunks so every work unit splits into several shards.
CONFIG = EvaluationConfig(chunk_size=32)
#: Monte-Carlo disturbance sampling exercises the seeded RNG streams.
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)


def _scheme_units(trace, config):
    return [
        WorkUnit(name, make_scheme(name), trace, config)
        for name in available_schemes()
    ]


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
        """One shard per chunk, carrying that chunk's lines and RNG stream."""
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
            assert [(s.chunk_index, s.start, s.stop) for s in shards] == ranges
            assert [s.stream.spawn_key for s in shards] == [(0, c) for c, _, _ in ranges]
            for shard in shards:
                assert shard.chunk.new == trace.new[shard.start:shard.stop]
                assert shard.chunk.old == trace.old[shard.start:shard.stop]

    def test_executor_chunksize_is_gone(self):
        # Shards are dispatched one chunk each; there is no batching knob.
        with pytest.raises(TypeError, match="executor_chunksize"):
            ParallelRunner(n_jobs=2, executor_chunksize=4)

    def test_empty_units(self):
        assert ParallelRunner(n_jobs=1).run([]) == {}
        assert ParallelRunner(n_jobs=4).run([]) == {}

    def test_starmap_preserves_order(self):
        tasks = [(i,) for i in range(20)]
        assert ParallelRunner(n_jobs=1).starmap(abs, tasks) == list(range(20))
        assert ParallelRunner(n_jobs=3).starmap(abs, tasks) == list(range(20))

    def test_starmap_ships_traces_by_transport(self, gcc_trace):
        """WriteTrace args ride the zero-copy transport, results unchanged."""
        from repro.evaluation.sweeps import compression_coverage

        traces = {"gcc": gcc_trace[:96]}
        serial = compression_coverage(traces, runner=ParallelRunner(1))
        shm = compression_coverage(traces, runner=ParallelRunner(2, transport="shm"))
        pickled = compression_coverage(
            traces, runner=ParallelRunner(2, transport="pickle")
        )
        assert serial == shm == pickled

    def test_starmap_transport_with_persistent_runner(self, gcc_trace):
        from repro.evaluation.sweeps import compression_coverage

        traces = {"gcc": gcc_trace[:96]}
        serial = compression_coverage(traces, runner=ParallelRunner(1))
        with ParallelRunner(2, transport="shm") as runner:
            first = compression_coverage(traces, runner=runner)
            second = compression_coverage(traces, runner=runner)
        assert serial == first == second


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

    def test_granularity_sweep_jobs_equivalence(self, gcc_trace, libq_trace):
        """Acceptance: >= 4 granularities, parallel identical to serial."""
        traces = {"gcc": gcc_trace[:96], "libq": libq_trace[:96]}
        def factory(g, em):
            return make_six_cosets(g, em)
        granularities = (8, 16, 32, 64)
        serial = granularity_sweep(factory, granularities, traces, CONFIG)
        parallel = granularity_sweep(factory, granularities, traces, CONFIG, n_jobs=4)
        assert list(serial) == list(granularities)
        for granularity in granularities:
            assert serial[granularity] == parallel[granularity]

    def test_granularity_sweep_monte_carlo_equivalence(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        def factory(g, em):
            return make_six_cosets(g, em)
        serial = granularity_sweep(factory, (16, 32), traces, MC_CONFIG)
        parallel = granularity_sweep(factory, (16, 32), traces, MC_CONFIG, n_jobs=2)
        assert serial == parallel

    def test_compression_coverage_jobs_equivalence(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        assert compression_coverage(traces) == compression_coverage(traces, n_jobs=2)
