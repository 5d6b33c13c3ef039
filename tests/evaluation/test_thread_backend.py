"""Thread-backend contract: bit-identical to the process backend and serial.

The vectorised compression kernels release the GIL, which is what makes
``backend="thread"`` a real alternative to worker processes.  The contract
is the same as for ``n_jobs``: metrics must be *exactly* equal (dataclass
equality, no ``approx``) across serial, thread-pool and process-pool
execution, with and without Monte-Carlo disturbance sampling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import ConfigurationError
from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.parallel import ParallelRunner, WorkUnit, shared_runner
from repro.evaluation.runner import evaluate_schemes
from repro.evaluation.sweeps import compression_coverage

SCHEMES = ("baseline", "wlcrc-16", "din", "coc+4cosets")


class TestBackendValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(2, backend="fiber")

    def test_shared_runner_keyed_by_backend(self):
        process = shared_runner(2)
        thread = shared_runner(2, backend="thread")
        assert process is not thread
        assert thread.backend == "thread"
        assert shared_runner(2, backend="thread") is thread

    def test_experiment_config_carries_backend(self):
        assert ExperimentConfig().backend == "process"
        assert ExperimentConfig(backend="thread").backend == "thread"


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_thread_equals_process_equals_serial(self, scheme, gcc_trace):
        encoder = make_scheme(scheme)
        config = EvaluationConfig(chunk_size=48)
        serial = evaluate_schemes([encoder], gcc_trace, config, n_jobs=1)
        threaded = evaluate_schemes(
            [encoder], gcc_trace, config, n_jobs=4, backend="thread"
        )
        process = evaluate_schemes(
            [encoder], gcc_trace, config, n_jobs=4, backend="process"
        )
        assert serial == threaded
        assert serial == process

    def test_monte_carlo_sampling_identical(self, gcc_trace):
        encoder = make_scheme("wlcrc-16")
        config = EvaluationConfig(chunk_size=48, sample_disturbance=True, seed=99)
        serial = evaluate_schemes([encoder], gcc_trace, config, n_jobs=1)
        threaded = evaluate_schemes(
            [encoder], gcc_trace, config, n_jobs=4, backend="thread"
        )
        assert serial == threaded

    def test_run_reduction_order_identical(self, gcc_trace, libq_trace):
        encoder = make_scheme("baseline")
        config = EvaluationConfig(chunk_size=64)
        units = [
            WorkUnit("total", encoder, gcc_trace, config),
            WorkUnit("total", encoder, libq_trace, config),
        ]
        serial = ParallelRunner(1).run(units)
        threaded = ParallelRunner(4, backend="thread").run(units)
        assert serial == threaded

    def test_starmap_passes_traces_directly(self, gcc_trace):
        coverage_serial = compression_coverage(
            {"gcc": gcc_trace}, runner=ParallelRunner(1)
        )
        coverage_thread = compression_coverage(
            {"gcc": gcc_trace}, runner=ParallelRunner(4, backend="thread")
        )
        assert coverage_serial == coverage_thread

    def test_persistent_thread_runner_reuses_pool(self, gcc_trace):
        encoder = make_scheme("baseline")
        config = EvaluationConfig(chunk_size=64)
        with ParallelRunner(4, backend="thread") as runner:
            first = runner.map([WorkUnit("t", encoder, gcc_trace, config)])
            pool = runner._executor
            second = runner.map([WorkUnit("t", encoder, gcc_trace, config)])
            assert runner._executor is pool
            # Threads never export traces through the transport layer.
            assert runner._exporter is None
        assert first == second


@given(st.integers(min_value=2, max_value=5), st.sampled_from(SCHEMES))
@settings(max_examples=8, deadline=None)
def test_thread_backend_bit_identity_property(n_jobs, scheme):
    """Property: any thread count reproduces the serial metrics exactly."""
    from repro.workloads.generator import generate_benchmark_trace

    trace = generate_benchmark_trace("gcc", length=96, seed=5)
    encoder = make_scheme(scheme)
    config = EvaluationConfig(chunk_size=17)
    serial = evaluate_schemes([encoder], trace, config, n_jobs=1)
    threaded = evaluate_schemes(
        [encoder], trace, config, n_jobs=n_jobs, backend="thread"
    )
    assert serial == threaded


def test_evaluate_schemes_thread_process_equivalence_full_sweep(gcc_trace):
    """Acceptance: the full scheme sweep is bit-identical across backends."""
    encoders = [make_scheme(s) for s in SCHEMES]
    config = EvaluationConfig(chunk_size=48)
    threaded = evaluate_schemes(encoders, gcc_trace, config, n_jobs=4, backend="thread")
    process = evaluate_schemes(encoders, gcc_trace, config, n_jobs=4, backend="process")
    serial = evaluate_schemes(encoders, gcc_trace, config, n_jobs=1)
    assert threaded == process == serial


def test_streaming_window_thread_backend(gcc_trace):
    """ChunkSource units run the windowed path on threads, bit-identically."""

    class Source:
        name = "src"

        def chunks(self, chunk_size):
            return gcc_trace.chunks(chunk_size)

    encoder = make_scheme("wlcrc-16")
    config = EvaluationConfig(chunk_size=32)
    serial = ParallelRunner(1).map([WorkUnit("s", encoder, Source(), config)])
    threaded = ParallelRunner(3, backend="thread", window=2).map(
        [WorkUnit("s", encoder, Source(), config)]
    )
    assert serial == threaded


def test_numpy_kernels_release_the_gil(biased_lines):
    """Two threads over the batch kernel must overlap (GIL released).

    A strict wall-clock assertion is flaky on loaded CI machines, so this
    only checks the kernels *run* concurrently without error and agree with
    the serial result -- the perf claim itself is measured (not asserted)
    by ``bench_parallel_scaling``.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.compression import COCCompressor

    coc = COCCompressor()
    reference = coc.compress_batch(biased_lines)
    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(lambda _: coc.compress_batch(biased_lines), range(8)))
    for packed in results:
        assert np.array_equal(packed.words, reference.words)
        assert np.array_equal(packed.lengths, reference.lengths)
