"""End-to-end tests of the streaming chunk pipeline.

The pipeline's contract, asserted here layer by layer:

* :class:`TraceWriter` produces byte-identical files to :func:`save_trace`;
* streamed ingest (parse -> synthesise -> spool) is bit-identical to the
  in-memory path for every dialect;
* evaluating an :class:`IngestChunkSource` through the engine's windowed
  dispatch is bit-identical to the serial in-memory evaluation at
  ``n_jobs`` 1 and 4 (the hypothesis property test below is the ISSUE's
  acceptance criterion);
* peak memory of the streamed path is bounded by the in-flight window, not
  the trace length (the smoke test streams a trace >= 10x the chunk window
  and asserts the tracemalloc peak barely moves versus a window-sized one).

The smoke test scales with ``REPRO_SMOKE_LINES`` so CI's tier-2 job can run
it against a much larger trace than the default tier-1 run.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import TraceError
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_trace
from repro.obs import observation
from repro.traces.ingest import (
    IngestChunkSource,
    StreamingSynthesizer,
    ingest_trace_file,
    stream_ingest_to_wtrc,
    synthesize_write_trace,
)
from repro.traces.store import TraceWriter, load_trace, read_trace_header, save_trace
from repro.workloads.trace import WriteTrace, rechunk_traces

MC_CONFIG = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=5)


def _write_ramulator(path: Path, addresses, writes_mask=None) -> Path:
    lines = []
    for i, addr in enumerate(addresses):
        is_write = True if writes_mask is None else bool(writes_mask[i])
        lines.append(f"{'W' if is_write else 'R'} 0x{int(addr):X} 0x40")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_tracehm(path: Path, addresses, writes_mask=None) -> Path:
    lines = []
    for i, addr in enumerate(addresses):
        is_write = 1 if writes_mask is None or writes_mask[i] else 0
        lines.append(f"{i}\t0x{int(addr):X}\t{is_write}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_ramulator_inst(path: Path, addresses, writes_mask=None) -> Path:
    lines = []
    for i, addr in enumerate(addresses):
        if writes_mask is None or writes_mask[i]:
            lines.append(f"{i % 7} {int(addr) ^ 0x40} {int(addr)}")
        else:
            lines.append(f"{i % 7} {int(addr)}")
    path.write_text("\n".join(lines) + "\n")
    return path


DIALECT_WRITERS = {
    "ramulator2": _write_ramulator,
    "tracehm": _write_tracehm,
    "ramulator2-inst": _write_ramulator_inst,
}


def _addresses(rng, n, span=2000):
    return (rng.integers(0, span, n) * 64).astype(np.uint64)


class TestTraceWriter:
    def test_chunked_write_is_byte_identical_to_save_trace(self, tmp_path, gcc_trace):
        trace = gcc_trace[:150]
        trace.metadata["origin"] = "unit-test"
        reference = save_trace(trace, tmp_path / "ref.wtrc")
        with TraceWriter(tmp_path / "streamed.wtrc", name=trace.name) as writer:
            for chunk in trace.chunks(37):
                writer.append(chunk)
            writer.metadata.update(trace.metadata)
        assert (tmp_path / "streamed.wtrc").read_bytes() == reference.read_bytes()

    def test_with_addresses(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = synthesize_write_trace(_addresses(rng, 100), chunk_lines=32)
        reference = save_trace(trace, tmp_path / "ref.wtrc")
        with TraceWriter(tmp_path / "s.wtrc", name=trace.name) as writer:
            for chunk in trace.chunks(41):
                writer.append(chunk)
            writer.metadata.update(trace.metadata)
        assert (tmp_path / "s.wtrc").read_bytes() == reference.read_bytes()
        loaded = load_trace(tmp_path / "s.wtrc")
        assert np.array_equal(loaded.addresses, trace.addresses)

    def test_empty_writer_produces_valid_empty_trace(self, tmp_path):
        with TraceWriter(tmp_path / "empty.wtrc") as writer:
            pass
        assert read_trace_header(tmp_path / "empty.wtrc").n_lines == 0
        assert len(load_trace(tmp_path / "empty.wtrc")) == 0

    def test_exception_leaves_no_file(self, tmp_path, gcc_trace):
        target = tmp_path / "aborted.wtrc"
        with pytest.raises(RuntimeError):
            with TraceWriter(target) as writer:
                writer.append(gcc_trace[:10])
                raise RuntimeError("boom")
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))  # spools cleaned up

    def test_mixed_addresses_rejected(self, tmp_path, gcc_trace):
        rng = np.random.default_rng(0)
        with_addr = synthesize_write_trace(_addresses(rng, 10))
        with TraceWriter(tmp_path / "t.wtrc") as writer:
            writer.append(with_addr)
            with pytest.raises(TraceError, match="consistently"):
                writer.append(gcc_trace[:10])  # no addresses
            writer.abort()
        assert not (tmp_path / "t.wtrc").exists()

    def test_append_after_close_rejected(self, tmp_path, gcc_trace):
        writer = TraceWriter(tmp_path / "t.wtrc")
        writer.append(gcc_trace[:10])
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append(gcc_trace[:10])


class TestNpzTraceWriter:
    """Streaming ``.npz`` targets (the archive path no longer materialises)."""

    def _assert_traces_equal(self, a, b):
        assert np.array_equal(a.old.words, b.old.words)
        assert np.array_equal(a.new.words, b.new.words)
        if a.addresses is None:
            assert b.addresses is None
        else:
            assert np.array_equal(a.addresses, b.addresses)
        assert a.name == b.name
        assert a.metadata == b.metadata

    def test_chunked_write_loads_equal_to_save(self, tmp_path, gcc_trace):
        from repro.traces.store import NpzTraceWriter

        trace = gcc_trace[:150]
        trace.metadata["origin"] = "unit-test"
        reference = trace.save(tmp_path / "ref.npz")
        with NpzTraceWriter(tmp_path / "streamed.npz", name=trace.name) as writer:
            for chunk in trace.chunks(37):
                writer.append(chunk)
            writer.metadata.update(trace.metadata)
        self._assert_traces_equal(
            WriteTrace.load(tmp_path / "streamed.npz"), WriteTrace.load(reference)
        )

    def test_with_addresses_and_line_count_probe(self, tmp_path):
        from repro.traces.store import NpzTraceWriter, read_npz_trace_lines

        rng = np.random.default_rng(0)
        trace = synthesize_write_trace(_addresses(rng, 100), chunk_lines=32)
        with NpzTraceWriter(tmp_path / "s.npz", name=trace.name) as writer:
            for chunk in trace.chunks(41):
                writer.append(chunk)
            writer.metadata.update(trace.metadata)
        assert read_npz_trace_lines(tmp_path / "s.npz") == len(trace)
        self._assert_traces_equal(WriteTrace.load(tmp_path / "s.npz"), trace)

    def test_stream_ingest_to_npz_equals_in_memory(self, tmp_path):
        from repro.traces.ingest import ingest_trace_file, stream_ingest_to_npz

        sample = Path(__file__).parent.parent / "data" / "sample_ramulator2.trace"
        streamed = stream_ingest_to_npz(sample, tmp_path / "s.npz")
        reference = ingest_trace_file(sample)
        self._assert_traces_equal(WriteTrace.load(streamed), reference)

    def test_empty_writer_produces_valid_empty_archive(self, tmp_path):
        from repro.traces.store import NpzTraceWriter, read_npz_trace_lines

        with NpzTraceWriter(tmp_path / "empty.npz", has_addresses=True) as writer:
            pass
        loaded = WriteTrace.load(tmp_path / "empty.npz")
        assert len(loaded) == 0
        assert loaded.addresses is not None and loaded.addresses.shape == (0,)
        assert read_npz_trace_lines(tmp_path / "empty.npz") == 0

    def test_exception_leaves_no_file(self, tmp_path, gcc_trace):
        from repro.traces.store import NpzTraceWriter

        target = tmp_path / "aborted.npz"
        with pytest.raises(RuntimeError):
            with NpzTraceWriter(target) as writer:
                writer.append(gcc_trace[:10])
                raise RuntimeError("boom")
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_probe_rejects_non_archives(self, tmp_path):
        from repro.traces.store import read_npz_trace_lines

        junk = tmp_path / "junk.npz"
        junk.write_text("not a zip")
        with pytest.raises(TraceError):
            read_npz_trace_lines(junk)


class TestStreamedIngestIdentity:
    @pytest.mark.parametrize("dialect", sorted(DIALECT_WRITERS))
    def test_streamed_wtrc_is_byte_identical_to_in_memory(self, tmp_path, dialect):
        rng = np.random.default_rng(3)
        src = DIALECT_WRITERS[dialect](
            tmp_path / "in.trace", _addresses(rng, 900), rng.random(900) < 0.7
        )
        mem = ingest_trace_file(src, fmt=dialect, chunk_lines=256)
        reference = save_trace(mem, tmp_path / "mem.wtrc")
        streamed = stream_ingest_to_wtrc(
            src, tmp_path / "stream.wtrc", fmt=dialect, chunk_lines=256
        )
        assert streamed.read_bytes() == reference.read_bytes()

    def test_chunk_source_matches_materialised_chunking(self, tmp_path):
        rng = np.random.default_rng(4)
        src = _write_ramulator(tmp_path / "in.trace", _addresses(rng, 700))
        mem = ingest_trace_file(src, chunk_lines=128)
        source = IngestChunkSource(src, chunk_lines=128)
        streamed_chunks = list(source.chunks(96))
        reference_chunks = list(mem.chunks(96))
        assert len(streamed_chunks) == len(reference_chunks)
        for streamed, reference in zip(streamed_chunks, reference_chunks):
            assert streamed.old == reference.old
            assert streamed.new == reference.new
            assert np.array_equal(streamed.addresses, reference.addresses)

    def test_chunk_source_is_reiterable(self, tmp_path):
        rng = np.random.default_rng(5)
        src = _write_ramulator(tmp_path / "in.trace", _addresses(rng, 300))
        source = IngestChunkSource(src, chunk_lines=64)
        first = WriteTrace.concat(list(source.chunks(50)))
        second = WriteTrace.concat(list(source.chunks(50)))
        assert first.old == second.old
        assert first.new == second.new

    def test_zero_write_trace_streams_byte_identically(self, tmp_path):
        """A reads-only input yields no chunks but the same empty .wtrc."""
        src = tmp_path / "reads.trace"
        src.write_text("R 0x1000 0x40\nR 0x2000 0x40\n")
        mem = ingest_trace_file(src)
        reference = save_trace(mem, tmp_path / "mem.wtrc")
        streamed = stream_ingest_to_wtrc(src, tmp_path / "stream.wtrc")
        assert streamed.read_bytes() == reference.read_bytes()
        assert read_trace_header(streamed).n_lines == 0

    @pytest.mark.parametrize("block", [1000, 1 << 30])
    def test_mutation_block_size_does_not_change_the_trace(self, monkeypatch, block):
        """A first round of 6,602 requests gives the same words in
        4,096-request blocks (the default), 1,000-request blocks or whole."""
        addresses = _addresses(np.random.default_rng(9), 12_000, span=9_000)
        default = synthesize_write_trace(addresses)
        monkeypatch.setattr("repro.traces.ingest._MUTATION_BLOCK", block)
        other = synthesize_write_trace(addresses)
        assert other.old == default.old and other.new == default.new

    def test_synthesis_quantum_boundaries_do_not_leak(self):
        """Same stream, same quantum, different feed granularity: identical."""
        rng = np.random.default_rng(6)
        addresses = _addresses(rng, 500, span=40)  # heavy reuse across chunks
        whole = synthesize_write_trace(addresses, chunk_lines=128)
        synthesizer = StreamingSynthesizer()
        fed = WriteTrace.concat(
            [synthesizer.feed(addresses[i:i + 128]) for i in range(0, 500, 128)]
        )
        assert fed.old == whole.old
        assert fed.new == whole.new


class TestRechunkTraces:
    def test_rechunks_exactly(self, gcc_trace):
        pieces = list(gcc_trace[:190].chunks(48))
        rechunked = list(rechunk_traces(iter(pieces), 64))
        assert [len(c) for c in rechunked] == [64, 64, 62]
        assert WriteTrace.concat(rechunked).new == gcc_trace[:190].new

    def test_empty_and_invalid(self):
        assert list(rechunk_traces(iter([]), 8)) == []
        with pytest.raises(TraceError):
            list(rechunk_traces(iter([]), 0))


class TestStreamingEvaluation:
    """The ISSUE's acceptance criterion: streamed == in-memory, n_jobs 1 and 4."""

    @settings(max_examples=8, deadline=None)
    @given(
        dialect=st.sampled_from(sorted(DIALECT_WRITERS)),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 400),
    )
    def test_streamed_evaluation_matches_in_memory(self, tmp_path_factory, dialect, seed, n):
        rng = np.random.default_rng(seed)
        tmp = tmp_path_factory.mktemp("stream-prop")
        src = DIALECT_WRITERS[dialect](
            tmp / "in.trace", _addresses(rng, n, span=60), rng.random(n) < 0.8
        )
        mem = ingest_trace_file(src, fmt=dialect, chunk_lines=128)
        encoder = make_scheme("baseline")
        reference = evaluate_trace(encoder, mem, MC_CONFIG)
        source = IngestChunkSource(src, fmt=dialect, chunk_lines=128)
        streamed = ParallelRunner(1).map([WorkUnit("k", encoder, source, MC_CONFIG)])[0]
        assert streamed == reference

    @pytest.mark.parametrize("dialect", sorted(DIALECT_WRITERS))
    def test_streamed_evaluation_matches_at_four_jobs(self, tmp_path, dialect):
        rng = np.random.default_rng(8)
        src = DIALECT_WRITERS[dialect](
            tmp_path / "in.trace", _addresses(rng, 900), rng.random(900) < 0.8
        )
        mem = ingest_trace_file(src, fmt=dialect, chunk_lines=128)
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, mem, MC_CONFIG)
        source = IngestChunkSource(src, fmt=dialect, chunk_lines=128)
        streamed = ParallelRunner(4, window=3).map(
            [WorkUnit("k", encoder, source, MC_CONFIG)]
        )[0]
        assert streamed == reference

    def test_multiple_units_share_one_source(self, tmp_path):
        """Re-iterable sources let several schemes stream the same file."""
        rng = np.random.default_rng(9)
        src = _write_ramulator(tmp_path / "in.trace", _addresses(rng, 400))
        mem = ingest_trace_file(src, chunk_lines=128)
        source = IngestChunkSource(src, chunk_lines=128)
        encoders = [make_scheme("baseline"), make_scheme("fnw")]
        units = [WorkUnit(e.name, e, source, MC_CONFIG) for e in encoders]
        streamed = ParallelRunner(4, window=2).map(units)
        for unit_index, encoder in enumerate(encoders):
            assert streamed[unit_index] == evaluate_trace(
                encoder, mem, MC_CONFIG, unit_index=unit_index
            )

    def test_mixed_materialised_and_streaming_units(self, tmp_path, gcc_trace):
        rng = np.random.default_rng(10)
        src = _write_ramulator(tmp_path / "in.trace", _addresses(rng, 300))
        source = IngestChunkSource(src, chunk_lines=64)
        mem = ingest_trace_file(src, chunk_lines=64)
        encoder = make_scheme("baseline")
        units = [
            WorkUnit("a", encoder, gcc_trace[:150], MC_CONFIG),
            WorkUnit("b", encoder, source, MC_CONFIG),
        ]
        results = ParallelRunner(2, window=2).map(units)
        assert results[0] == evaluate_trace(encoder, gcc_trace[:150], MC_CONFIG)
        assert results[1] == evaluate_trace(encoder, mem, MC_CONFIG, unit_index=1)

    def test_mixed_call_exports_the_corpus_backed_unit(self, tmp_path):
        """A streaming unit beside an mmap-backed one: the corpus unit ships
        by mmap descriptor (its chunks are not pickled in the parent) and
        both match the serial run bit for bit under sampled disturbance."""
        rng = np.random.default_rng(11)
        src = _write_ramulator(tmp_path / "in.trace", _addresses(rng, 300))
        mem = ingest_trace_file(src, chunk_lines=64)
        corpus = load_trace(save_trace(mem, tmp_path / "in.wtrc"))
        encoder = make_scheme("wlcrc-16")
        units = [
            WorkUnit("stream", encoder, IngestChunkSource(src, chunk_lines=64), MC_CONFIG),
            WorkUnit("corpus", encoder, corpus, MC_CONFIG),
        ]
        with observation() as session:
            results = ParallelRunner(2).map(units)
        exports = {
            key: entry["value"]
            for key, entry in session.metrics.snapshot().items()
            if key.startswith("trace_export{")
        }
        assert exports == {"trace_export{kind=mmap}": 1}
        assert results == [
            evaluate_trace(encoder, mem, MC_CONFIG, unit_index=index) for index in (0, 1)
        ]


class TestSynthesizeSpans:
    """The parent's synthesis shows in profiles: one span per quantum."""

    def test_one_span_per_quantum_inside_a_session(self):
        addresses = _addresses(np.random.default_rng(5), 2500, span=600)
        synthesizer = StreamingSynthesizer()
        with observation() as session:
            for start in range(0, len(addresses), 1024):
                synthesizer.feed(addresses[start:start + 1024])
        spans = [record for record in session.spans if record.name == "synthesize"]
        assert [(r.attrs["chunk"], r.attrs["requests"]) for r in spans] == [
            (0, 1024), (1, 1024), (2, 452)
        ]
        assert spans[0].attrs["fresh"] == len(np.unique(addresses[:1024]))
        assert sum(r.attrs["fresh"] for r in spans) == synthesizer.unique_lines
        # The process's high-water mark after each quantum: positive, never falling.
        peaks = [r.attrs["peak_rss_bytes"] for r in spans]
        assert peaks[0] > 0 and peaks == sorted(peaks)

    def test_no_span_is_built_outside_a_session(self, monkeypatch):
        import repro.obs.core as obs_core

        built = []

        class CountingSpan(obs_core._Span):
            def __init__(self, session, name, attrs):
                built.append(name)
                super().__init__(session, name, attrs)

        monkeypatch.setattr(obs_core, "_Span", CountingSpan)
        addresses = _addresses(np.random.default_rng(6), 300)
        plain = synthesize_write_trace(addresses, chunk_lines=128)
        assert built == []
        with observation():
            traced = synthesize_write_trace(addresses, chunk_lines=128)
        assert built == ["synthesize"] * 3
        assert traced.new == plain.new and traced.old == plain.old


class TestBoundedMemory:
    """Peak memory tracks the window/quantum, not the trace length."""

    #: Requests in the large trace; CI's tier-2 job raises this by 20x+.
    SMOKE_LINES = int(os.environ.get("REPRO_SMOKE_LINES", "30000"))
    #: Synthesis quantum of the smoke run -- the "chunk window" the large
    #: trace must exceed by >= 10x.
    QUANTUM = int(os.environ.get("REPRO_SMOKE_CHUNK_LINES", "2048"))

    @staticmethod
    def _traced_peak(func):
        tracemalloc.start()
        try:
            result = func()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_one_quantum_synthesis_peak(self):
        """A default 65,536-request quantum over ~32k distinct lines returns
        8.4 MB of old and new words; synthesising it peaks at most 21 MB
        (one value array in the plan, rounds applied in 4,096-request blocks;
        36 MB before either)."""
        addresses = _addresses(np.random.default_rng(3), 65536, span=40_000)
        synthesizer = StreamingSynthesizer()
        _, peak = self._traced_peak(lambda: synthesizer.feed(addresses))
        assert synthesizer.unique_lines > 30_000
        assert peak <= 21_000_000, f"one-quantum synthesis peak {peak}"

    @pytest.mark.tier2
    def test_streaming_convert_and_evaluate_peak_is_window_bounded(self, tmp_path):
        """Stream a trace >= 10x the chunk window end to end; the tracemalloc
        peak must stay near the one-window baseline instead of scaling with
        the trace, and the metrics must match the in-memory path exactly."""
        large_n = max(self.SMOKE_LINES, 10 * self.QUANTUM)
        rng = np.random.default_rng(11)
        small = _write_ramulator(
            tmp_path / "small.trace", _addresses(rng, self.QUANTUM, span=5000)
        )
        large = _write_ramulator(
            tmp_path / "large.trace", _addresses(rng, large_n, span=5000)
        )

        def convert(src, out):
            return lambda: stream_ingest_to_wtrc(
                src, out, chunk_lines=self.QUANTUM
            )

        _, small_peak = self._traced_peak(convert(small, tmp_path / "small.wtrc"))
        spooled, large_peak = self._traced_peak(convert(large, tmp_path / "large.wtrc"))
        trace_bytes = large_n * 128  # materialised old+new content alone
        assert large_peak < max(3 * small_peak, trace_bytes // 4), (
            f"streamed convert peak {large_peak} scales with the trace "
            f"(window baseline {small_peak}, trace {trace_bytes} bytes)"
        )

        # Evaluate the spooled trace (mmap) and the raw file (chunk stream):
        # both bounded, both bit-identical to the in-memory reference.
        config = EvaluationConfig(chunk_size=512)
        encoder = make_scheme("baseline")
        mmap_trace = load_trace(spooled)

        def evaluate_stream():
            source = IngestChunkSource(large, chunk_lines=self.QUANTUM)
            return ParallelRunner(1, window=4).map(
                [WorkUnit("k", encoder, source, config)]
            )[0]

        streamed_metrics, eval_peak = self._traced_peak(evaluate_stream)
        assert eval_peak < max(4 * small_peak, trace_bytes // 4)
        mmap_metrics = evaluate_trace(encoder, mmap_trace, config)
        assert streamed_metrics == mmap_metrics
        if large_n <= 200_000:  # full materialisation affordable: close the loop
            in_memory = ingest_trace_file(large, chunk_lines=self.QUANTUM)
            assert evaluate_trace(encoder, in_memory, config) == streamed_metrics
        # Pooled, the parent submits the mmap trace's descriptor tasks at
        # once (they carry no lines) but holds at most 16 x window = 64 of
        # them pending (~2.4 KB each) and at most `window` streamed chunks
        # beside them: neither peak grows with the trace.
        def evaluate_pooled(*sources):
            return ParallelRunner(4, window=4).map(
                [WorkUnit(i, encoder, source, config) for i, source in enumerate(sources)]
            )

        parallel_metrics, pooled_peak = self._traced_peak(lambda: evaluate_pooled(mmap_trace))
        assert pooled_peak < 1 << 20, f"descriptor-only map peak {pooled_peak}"
        assert parallel_metrics == [mmap_metrics]
        mixed_metrics, mixed_peak = self._traced_peak(lambda: evaluate_pooled(
            IngestChunkSource(large, chunk_lines=self.QUANTUM), mmap_trace
        ))
        assert mixed_peak < 4 * small_peak
        assert mixed_metrics == [streamed_metrics, mmap_metrics]
