"""Single-path contract tests: one task, one encode, one reduction per chunk.

The evaluation engine has exactly one code path.  :func:`evaluate_trace`
and the parallel engine split a trace into ``config.chunk_size`` chunks,
encode each task -- one chunk, or a run of short consecutive chunks of one
encoder holding at most ``chunk_size`` lines together -- with one
``encode_batch`` call, reduce every chunk with one ``metrics_from_encoded``
call on the chunk's own disturbance stream, and merge the chunk metrics in
trace order.  The tests here rebuild that decomposition by hand and hold
both engines to it, bit for bit, across the candidate-sweep encoder
families, granularities 8..512, ragged tails, empty traces, Monte-Carlo
sampling, streaming sources, packed tasks, pool kinds and worker counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import coset_encoder, make_scheme
from repro.coding.coc_cosets import COCFourCosetsEncoder
from repro.coding.din import DINEncoder
from repro.core.config import EvaluationConfig
from repro.core.metrics import WriteMetrics
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_trace, metrics_from_encoded, n_chunks_of
from repro.obs import observation
from repro.workloads.generator import generate_benchmark_trace

#: Encoder families spanning the coset (8..512-bit), restricted-coset, CoC,
#: WLC-word and DIN designs.
ENCODER_FAMILIES = {
    "3cosets-8": lambda: coset_encoder("3cosets", 8),
    "3cosets-64": lambda: coset_encoder("3cosets", 64),
    "3cosets-512": lambda: coset_encoder("3cosets", 512),
    "restricted-16": lambda: coset_encoder("3-r-cosets", 16),
    "restricted-256": lambda: coset_encoder("3-r-cosets", 256),
    "coc-4cosets": COCFourCosetsEncoder,
    "wlc-3cosets": lambda: coset_encoder("wlc+3cosets", 32),
    "wlcrc-16": lambda: coset_encoder("wlcrc", 16),
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
        encoder = coset_encoder("3cosets", 64)
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
        encoder = coset_encoder("3cosets", 64)
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
        encoder = coset_encoder("3cosets", 64)
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


def packed_tasks(units):
    """Number of tasks of the packing rule, from unit lengths and encoders alone.

    Tasks are generated for the materialised units first, then for the
    streamed ones, each group in unit order.  Consecutive chunks of a group
    share a task while they have one encoder object and together hold at
    most ``chunk_size`` lines.
    """
    units = list(units)
    tasks = 0
    for streamed in (False, True):
        lines, encoder = 0, None
        for unit, length in units:
            if isinstance(unit.trace, StreamingSource) != streamed:
                continue
            size = unit.config.chunk_size
            for start in range(0, length, size):
                n = min(size, length - start)
                if lines and (unit.encoder is not encoder or lines + n > size):
                    tasks, lines = tasks + 1, 0
                encoder, lines = unit.encoder, lines + n
        tasks += bool(lines)
    return tasks


#: One persistent runner per (n_jobs, backend), shared by the examples.
PACKING_RUNNERS = [(1, "thread"), (1, "process"), (2, "thread"), (2, "process")]


@pytest.fixture(scope="module", params=PACKING_RUNNERS, ids=lambda p: f"{p[1]}-{p[0]}")
def packing_runner(request):
    n_jobs, backend = request.param
    with ParallelRunner(n_jobs, backend=backend) as runner:
        yield runner


class TestPacking:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_packed_map_equals_evaluate_trace(self, packing_runner, gcc_trace, data):
        """Short units and tails share tasks; each unit's metrics stay exact.

        Unit ``i`` reads up to 2.5 chunks from line ``7 i`` of the trace."""
        chunk_size = data.draw(st.integers(min_value=8, max_value=64), "chunk_size")
        lengths = data.draw(st.lists(
            st.integers(min_value=0, max_value=5 * chunk_size // 2), min_size=1, max_size=6
        ), "lengths")
        mode = data.draw(st.sampled_from(["shared", "equal", "alternating"]), "encoders")
        streaming = data.draw(st.lists(
            st.booleans(), min_size=len(lengths), max_size=len(lengths)
        ), "streaming")
        config = EvaluationConfig(
            chunk_size=chunk_size, seed=11, sample_disturbance=data.draw(st.booleans(), "sample")
        )
        shared = [make_scheme("wlcrc-16"), coset_encoder("3cosets", 64)]
        units = []
        for i, (length, stream) in enumerate(zip(lengths, streaming)):
            if mode == "equal":
                encoder = make_scheme("wlcrc-16")
            else:
                encoder = shared[i % 2 if mode == "alternating" else 0]
            trace = gcc_trace[7 * i:7 * i + length]
            units.append(WorkUnit(i, encoder, StreamingSource(trace) if stream else trace, config))

        with observation("packing") as session:
            mapped = packing_runner.map(units)
        for i, unit in enumerate(units):
            assert mapped[i] == evaluate_trace(unit.encoder, unit.trace, config, unit_index=i)
        spans = [record for record in session.spans if record.name == "encode_batch"]
        assert len(spans) == packed_tasks(zip(units, lengths))
        assert all(record.attrs["lines"] <= chunk_size for record in spans)
        assert sum(record.attrs["lines"] for record in spans) == sum(lengths)


class TestParallelEngine:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_granularity_ladder(self, granularity):
        encoder = coset_encoder("3cosets", granularity)
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
        encoder = coset_encoder("3cosets", 256)
        trace = generate_benchmark_trace("gcc", 1500, seed=17)
        config = EvaluationConfig(chunk_size=128, seed=17, sample_disturbance=sample)
        reference = evaluate_trace(encoder, trace, config)
        runner = ParallelRunner(n_jobs, backend=pool)
        materialised = runner.map([WorkUnit("m", encoder, trace, config)])[0]
        streamed = runner.map([WorkUnit("s", encoder, StreamingSource(trace), config)])[0]
        assert materialised == streamed == reference

    def test_empty_trace(self):
        encoder = coset_encoder("3cosets", 64)
        trace = generate_benchmark_trace("gcc", 100, seed=3)[:0]
        config = EvaluationConfig(chunk_size=64, sample_disturbance=True)
        runner = ParallelRunner(2, backend="thread")
        assert runner.map([WorkUnit("e", encoder, trace, config)]) == [WriteMetrics()]
        assert runner.map(
            [WorkUnit("e", encoder, StreamingSource(trace), config)]
        ) == [WriteMetrics()]
