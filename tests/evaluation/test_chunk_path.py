"""Single-path contract tests: one chunk, one encode, one reduction.

The evaluation engine has exactly one code path.  :func:`evaluate_trace`
and the parallel engine split a trace into ``config.chunk_size`` chunks,
encode each chunk with one ``encode_batch`` call, reduce it with one
``metrics_from_encoded`` call on the chunk's own disturbance stream, and
merge the chunk metrics in trace order.  The tests here rebuild that
decomposition by hand and hold both engines to it, bit for bit, across the
candidate-sweep encoder families, granularities 8..512, ragged tails, empty
traces, Monte-Carlo sampling, streaming sources, pool kinds and worker
counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.coc_cosets import COCFourCosetsEncoder
from repro.coding.din import DINEncoder
from repro.coding.ncosets import make_three_cosets
from repro.coding.restricted import RestrictedCosetEncoder
from repro.coding.wlc_cosets import make_wlc_three_cosets
from repro.coding.wlcrc import WLCRCEncoder
from repro.core.config import EvaluationConfig
from repro.core.metrics import WriteMetrics
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_trace, metrics_from_encoded, n_chunks_of
from repro.obs import observation
from repro.workloads.generator import generate_benchmark_trace

#: Encoder families spanning the coset (8..512-bit), restricted-coset, CoC,
#: WLC-word and DIN designs.
ENCODER_FAMILIES = {
    "3cosets-8": lambda: make_three_cosets(8),
    "3cosets-64": lambda: make_three_cosets(64),
    "3cosets-512": lambda: make_three_cosets(512),
    "restricted-16": lambda: RestrictedCosetEncoder(16),
    "restricted-256": lambda: RestrictedCosetEncoder(256),
    "coc-4cosets": COCFourCosetsEncoder,
    "wlc-3cosets": make_wlc_three_cosets,
    "wlcrc-16": WLCRCEncoder,
    "din": DINEncoder,
}

GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)


class StreamingSource:
    """A trace seen only through ``chunks`` (no ``len``): a streaming unit."""

    def __init__(self, trace):
        self.name = trace.name
        self._trace = trace

    def chunks(self, chunk_size):
        return self._trace.chunks(chunk_size)


def per_chunk_reference(encoder, trace, config, unit_index=0):
    """The engine's contract, built by hand from the public primitives."""
    total = WriteMetrics()
    size = config.chunk_size
    for chunk_index, start in enumerate(range(0, len(trace), size)):
        chunk = trace[start:start + size]
        encoded = encoder.encode_batch(chunk.new, chunk.old)
        rng = None
        if config.sample_disturbance:
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(unit_index, chunk_index))
            )
        total.merge(metrics_from_encoded(encoded, encoder, rng=rng))
    return total


def encode_spans(session):
    """Number of ``encode_batch`` spans an observation session recorded."""
    return sum(1 for record in session.spans if record.name == "encode_batch")


class TestPerChunkDecomposition:
    @pytest.mark.parametrize("sample", [False, True])
    @pytest.mark.parametrize("name", sorted(ENCODER_FAMILIES))
    def test_every_encoder_family(self, name, sample):
        encoder = ENCODER_FAMILIES[name]()
        trace = generate_benchmark_trace("mcf", 1100, seed=9)  # ragged tail
        config = EvaluationConfig(chunk_size=128, seed=7, sample_disturbance=sample)
        assert evaluate_trace(encoder, trace, config) == per_chunk_reference(
            encoder, trace, config
        )

    def test_empty_trace_encodes_nothing(self):
        encoder = make_three_cosets(64)
        trace = generate_benchmark_trace("gcc", 100, seed=3)[:0]
        config = EvaluationConfig(chunk_size=64, sample_disturbance=True)
        with observation("empty") as session:
            metrics = evaluate_trace(encoder, trace, config)
        assert metrics == WriteMetrics()
        assert encode_spans(session) == 0

    @given(
        length=st.integers(min_value=0, max_value=700),
        chunk_size=st.integers(min_value=16, max_value=192),
        sample=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_geometry_property(self, length, chunk_size, sample):
        """Any (trace length, chunk size) geometry -- including single-line
        tails, one-chunk traces and empty traces."""
        encoder = make_three_cosets(64)
        trace = generate_benchmark_trace("mcf", max(length, 1), seed=21)[:length]
        config = EvaluationConfig(chunk_size=chunk_size, sample_disturbance=sample)
        with observation("geometry") as session:
            metrics = evaluate_trace(encoder, trace, config)
        assert encode_spans(session) == n_chunks_of(trace, config)
        assert metrics == per_chunk_reference(encoder, trace, config)
        parallel = ParallelRunner(3, backend="thread").map(
            [WorkUnit("g", encoder, trace, config)]
        )[0]
        assert parallel == metrics


class TestOneEncodePerChunk:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_encode_batch_once_per_chunk(self, pool):
        encoder = make_three_cosets(64)
        trace = generate_benchmark_trace("gcc", 300, seed=3)
        config = EvaluationConfig(chunk_size=64)
        with observation("one-encode") as session:
            if pool == "serial":
                metrics = evaluate_trace(encoder, trace, config)
            else:
                metrics = ParallelRunner(2, backend=pool).map(
                    [WorkUnit("u", encoder, trace, config)]
                )[0]
        assert encode_spans(session) == n_chunks_of(trace, config) == 5
        assert metrics == per_chunk_reference(encoder, trace, config)


class TestParallelEngine:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_granularity_ladder(self, granularity):
        encoder = make_three_cosets(granularity)
        trace = generate_benchmark_trace("gcc", 700, seed=5)
        config = EvaluationConfig(chunk_size=100, sample_disturbance=True)
        result = ParallelRunner(2, backend="thread").map(
            [WorkUnit("g", encoder, trace, config)]
        )[0]
        assert result == evaluate_trace(encoder, trace, config)
        assert result == per_chunk_reference(encoder, trace, config)

    @pytest.mark.parametrize("sample", [False, True])
    @pytest.mark.parametrize("n_jobs", [1, 4])
    @pytest.mark.parametrize("pool", ["process", "thread"])
    def test_streaming_equals_materialised(self, pool, n_jobs, sample):
        encoder = make_three_cosets(256)
        trace = generate_benchmark_trace("gcc", 1500, seed=17)
        config = EvaluationConfig(chunk_size=128, seed=17, sample_disturbance=sample)
        reference = evaluate_trace(encoder, trace, config)
        runner = ParallelRunner(n_jobs, backend=pool)
        materialised = runner.map([WorkUnit("m", encoder, trace, config)])[0]
        streamed = runner.map([WorkUnit("s", encoder, StreamingSource(trace), config)])[0]
        assert materialised == streamed == reference

    def test_empty_trace(self):
        encoder = make_three_cosets(64)
        trace = generate_benchmark_trace("gcc", 100, seed=3)[:0]
        config = EvaluationConfig(chunk_size=64, sample_disturbance=True)
        runner = ParallelRunner(2, backend="thread")
        assert runner.map([WorkUnit("e", encoder, trace, config)]) == [WriteMetrics()]
        assert runner.map(
            [WorkUnit("e", encoder, StreamingSource(trace), config)]
        ) == [WriteMetrics()]
