"""Per-layer probes of the traced run.

Each probe calls one layer's public functions directly, on inputs taken
from the workload itself (its benchmark traces, its corpus, its ingested
trace), inside a span of the benchmark's own :class:`~tracing.Tracer`.  The
per-layer metrics are then read back from the spans, so every number in
the traced output has a span in the written trace behind it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

from repro.compression import COC_BUDGET_32BIT, COCCompressor, WLCCompressor
from repro.core.disturbance import DEFAULT_DISTURBANCE_MODEL
from repro.core.line import LineBatch
from repro.evaluation.runner import evaluate_trace, metrics_from_encoded
from repro.obs import observation
from repro.traces import (
    StreamingSynthesizer,
    TraceCorpus,
    TraceWriter,
    iter_trace_address_chunks,
    load_trace,
)
from repro.workloads.generator import generate_benchmark_trace
from repro.workloads.profiles import ALL_BENCHMARKS

from catalog import ALL_SCHEMES, COMPRESSING_SCHEMES, metric_scheme
from workloads import IngestStream, Workload, metrics_digest, write_ramulator_trace

#: WLC compressor of the paper's headline WLCRC-16 (k = 6 MSBs).
WLC_K = 6
#: Lines per scheme whose decode is checked against the data written.
DECODE_SAMPLE = 256
#: Repeats of the sub-millisecond probes (their median is reported).
SHORT_REPEATS = 5


class Checks:
    """Attempted/failed counts of every correctness check a probe makes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def obs_counter(snapshot: Dict[str, Dict], name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0))


def probe_inputs(wl: Workload, tracer, checks: Checks) -> Dict[str, float]:
    """workloads + traces layers."""
    ctx = wl.ctx
    out: Dict[str, float] = {}
    with tracer.span("workloads.generate", phase="probe"):
        for name in ALL_BENCHMARKS:
            generate_benchmark_trace(name, ctx.sizes.trace_length, ctx.seed)
    out["workloads.generate_s"] = tracer.seconds("workloads.generate", phase="probe")

    corpus = TraceCorpus(ctx.work_dir / "probe-corpus")
    with tracer.span("traces.corpus_build", phase="probe"):
        for name in ALL_BENCHMARKS:
            corpus.get_or_generate(name, ctx.sizes.trace_length, ctx.seed)
    out["traces.corpus_build_s"] = tracer.seconds("traces.corpus_build", phase="probe")

    if isinstance(wl, IngestStream):
        text, text_lines = wl.text, ctx.sizes.ingest_requests
    else:
        text = ctx.work_dir / "probe.trace"
        with tracer.span("traces.text_generate", phase="probe"):
            text_lines = write_ramulator_trace(text, ctx.sizes.ingest_requests, ctx.seed)
    with tracer.span("traces.parse"):
        chunks = list(iter_trace_address_chunks(text))
    with tracer.span("traces.synthesize"):
        pieces = list(StreamingSynthesizer(name=text.stem).feed_all(chunks))
    out_path = ctx.work_dir / "probe.wtrc"
    with tracer.span("traces.wtrc_write"):
        with TraceWriter(out_path, name=text.stem, has_addresses=True) as writer:
            for piece in pieces:
                writer.append(piece)
    write_lines = sum(len(p) for p in pieces)
    loads = []
    for _ in range(SHORT_REPEATS):
        with tracer.span("traces.mmap_load") as span:
            loaded = load_trace(out_path)
        loads.append(span.seconds)
    checks.expect(len(loaded) == write_lines)
    out["traces.parse_lines_per_s"] = text_lines / tracer.seconds("traces.parse")
    out["traces.synthesize_lines_per_s"] = write_lines / tracer.seconds("traces.synthesize")
    out["traces.wtrc_write_s"] = tracer.seconds("traces.wtrc_write")
    out["traces.mmap_load_s"] = statistics.median(loads)
    return out


def probe_compression(batch: LineBatch, tracer, checks: Checks) -> Dict[str, float]:
    wlc = WLCCompressor(k=WLC_K)
    with tracer.span("compression.wlc.compress"):
        fits = wlc.line_compressible(batch)
        compressible = LineBatch(batch.words[fits])
        packed = wlc.compress_batch(compressible, validated=True)
    with tracer.span("compression.wlc.decompress"):
        restored = wlc.decompress_batch(packed)
    checks.expect(np.array_equal(restored, compressible.words))
    coc = COCCompressor()
    with tracer.span("compression.coc.compress"):
        sizes = coc.sizes_bits(batch)
        coc_packed = coc.compress_batch(batch)
    checks.expect(np.array_equal(coc.decompress_batch(coc_packed), batch.words))
    n = len(batch)
    return {
        "compression.wlc.compress_lines_per_s": n / tracer.seconds("compression.wlc.compress"),
        "compression.wlc.decompress_lines_per_s":
            max(len(compressible), 1) / tracer.seconds("compression.wlc.decompress"),
        "compression.coc.compress_lines_per_s": n / tracer.seconds("compression.coc.compress"),
        "compression.wlc.compressed_ratio": float(fits.mean()),
        "compression.coc.compressed_ratio": float((sizes <= COC_BUDGET_32BIT).mean()),
    }


def probe_coding(wl: Workload, sample, tracer, checks: Checks) -> Dict[str, float]:
    """coding, core and evaluation.runner layers, one scheme at a time."""
    out: Dict[str, float] = {}
    rng = np.random.default_rng(wl.ctx.seed)
    rows = rng.choice(len(sample), size=min(DECODE_SAMPLE, len(sample)), replace=False)
    mismatches = 0
    for scheme in ALL_SCHEMES:
        encoder = wl.encoder(scheme)
        with tracer.span("coding.scheme", scheme=scheme):
            with tracer.span("coding.encode_batch", scheme=scheme):
                encoded = encoder.encode_batch(sample.new, sample.old)
            with tracer.span("coding.reference_encode", scheme=scheme):
                stored = encoder.encode_reference(sample.old)
            with tracer.span("coding.encode", scheme=scheme):
                again = encoder.encode_against_stored(sample.new, stored)
            with tracer.span("coding.decode", scheme=scheme):
                decoded = encoder.decode_states(again.states)
            if scheme in wl.schemes:
                changed = encoded.changed
                with tracer.span("evaluation.runner.metrics", scheme=scheme):
                    metrics_from_encoded(encoded, encoder)
                with tracer.span("core.energy", scheme=scheme):
                    encoder.energy_model.cell_write_energy(encoded.states, changed)
                with tracer.span("core.disturbance", scheme=scheme):
                    DEFAULT_DISTURBANCE_MODEL.expected_errors(encoded.old_states, changed)
                with tracer.span("core.disturbance_sampled", scheme=scheme):
                    DEFAULT_DISTURBANCE_MODEL.sample_errors(encoded.old_states, changed, rng)
        checks.expect(np.array_equal(again.states, encoded.states))
        bad = int((decoded.words[rows] != sample.new.words[rows]).any(axis=1).sum())
        mismatches += bad
        checks.attempted += len(rows)
        checks.failed += bad
        s = metric_scheme(scheme)
        out[f"coding.{s}.lines_per_s"] = (
            len(sample) / tracer.seconds("coding.encode_batch", scheme=scheme)
        )
        out[f"coding.{s}.reference_encode_s"] = tracer.seconds("coding.reference_encode", scheme=scheme)
        out[f"coding.{s}.encode_s"] = tracer.seconds("coding.encode", scheme=scheme)
        out[f"coding.{s}.decode_s"] = tracer.seconds("coding.decode", scheme=scheme)
        if scheme in COMPRESSING_SCHEMES:
            out[f"coding.{s}.encoded_ratio"] = float(encoded.encoded.mean())
    out["coding.decode_mismatches"] = float(mismatches)
    metrics_s = tracer.seconds("evaluation.runner.metrics")
    encode_s = sum(tracer.seconds("coding.encode_batch", scheme=s) for s in wl.schemes)
    out["core.energy_s"] = tracer.seconds("core.energy")
    out["core.disturbance_s"] = tracer.seconds("core.disturbance")
    out["core.disturbance_sampled_s"] = tracer.seconds("core.disturbance_sampled")
    out["evaluation.runner.metrics_s"] = metrics_s
    out["evaluation.runner.metrics_share"] = metrics_s / (metrics_s + encode_s)
    return out


def probe_parallel(
    wl: Workload, tracer, checks: Checks, expected: List[str]
) -> Tuple[Dict[str, float], Dict[str, Dict]]:
    """evaluation.parallel: the pass's units through the runner, then serially."""
    units = wl.units()
    with observation("perfbench-map") as session:
        with tracer.span("evaluation.parallel.map", units=len(units), workers=wl.workers):
            mapped = wl.runner().map(units)
    with tracer.span("evaluation.parallel.compute", units=len(units)):
        computed = [
            evaluate_trace(u.encoder, u.trace, u.config, u.disturbance_model, unit_index=i)
            for i, u in enumerate(units)
        ]
    for a, b in zip(mapped, computed):
        checks.expect(metrics_digest(a) == metrics_digest(b))
    got = wl.unit_digests(mapped)
    want = expected[-len(got):]  # ingest_stream's pins lead with the .wtrc digest
    for a, b in zip(got, want):
        checks.expect(a == b)
    map_s = tracer.seconds("evaluation.parallel.map")
    compute_s = tracer.seconds("evaluation.parallel.compute")
    starts = [s.seconds for s in tracer.find("evaluation.parallel.pool_start")]
    return {
        "evaluation.parallel.pool_start_s": statistics.median(starts),
        "evaluation.parallel.map_s": map_s,
        "evaluation.parallel.compute_s": compute_s,
        "evaluation.parallel.efficiency": compute_s / (map_s * wl.workers),
    }, session.metrics.snapshot()
