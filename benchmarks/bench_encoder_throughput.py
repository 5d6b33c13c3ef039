"""Encode-throughput benchmark: scalar per-line loops vs the batch kernels.

Every compression front-end exposes a vectorised ``compress_batch`` /
``decompress_batch`` pair (``src/repro/compression/kernels.py``) that the
encoders consume whole layout groups at a time; the scalar
``compress_line`` path survives as a thin per-line wrapper for tests and
one-off inspection (the PCM device model goes through
``encode_against_stored``, never through it).  This benchmark measures both paths
on the same biased-content lines -- lines/s per scheme plus the
batch-over-scalar speedup -- and asserts the kernel contract:

* the batch streams are bit-identical to the scalar streams;
* ``decompress_batch`` round-trips the original lines;
* at the default 4096-line batch, BDI, FPC and the DIN payload encoder
  (whose BCH parity is one batched GF(2) reduction, not a per-line
  polynomial carry chain) run at least **5x** faster through the batch
  paths than through the per-line loops.

``REPRO_BENCH_KERNEL_LINES`` overrides the batch size (the speedup assert
only applies from 2048 lines up, where kernel start-up cost is amortised).
Results land in ``BENCH_encoder_throughput.json``; the perf gate tracks the
BDI/FPC/DIN speedups and the FPC batch throughput against
``benchmarks/baselines/encoder_throughput.json``.
"""

import os
import time

import numpy as np

from repro.bench import BenchSpec, Gate, run_once, write_json, write_result
from repro.coding.din import MAX_COMPRESSED_BITS, DINEncoder
from repro.compression import (
    BDICompressor,
    COCCompressor,
    FPCBDICompressor,
    FPCCompressor,
    WLCCompressor,
)
from repro.core.line import LineBatch
from repro.core.symbols import BITS_PER_LINE
from repro.evaluation import format_series_table
from repro.workloads.generator import generate_benchmark_trace

BENCHMARK = BenchSpec(
    figure="kernels",
    title="Vectorised compression kernels: batch vs scalar encode throughput",
    cost=4.0,
    perf_artifacts=(
        "encoder_throughput.txt",
        "BENCH_encoder_throughput.json",
    ),
    env=("REPRO_BENCH_KERNEL_LINES", "REPRO_BENCH_SEED"),
    gates=(
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.bdi",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.fpc",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.din",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="batch_lines_per_s.fpc",
            direction="higher",
            tolerance_pct=75.0,
            context=("lines",),
        ),
    ),
)

#: Batch size at and above which the >=5x speedup contract is asserted.
SPEEDUP_ASSERT_LINES = 2048
#: Minimum batch-over-scalar speedup required of BDI and FPC.
MIN_SPEEDUP = 5.0
#: Streams cross-checked bit-for-bit between the scalar and batch paths.
VERIFY_LINES = 64


def _compressors():
    return (
        ("bdi", BDICompressor()),
        ("fpc", FPCCompressor()),
        ("fpc+bdi", FPCBDICompressor()),
        ("coc", COCCompressor()),
        ("wlc-6msb", WLCCompressor(k=6)),
    )


def _eligible_lines(name, compressor, batch, lines):
    """``lines`` compressor-eligible words, tiling the pool when short.

    BDI and WLC raise on lines outside their coverage (matching the scalar
    contract), so their pools are the compressible subset of the trace; the
    always-applicable compressors measure on the raw line mix.
    """
    if name == "bdi":
        words = batch.words[compressor.sizes_bits(batch) < BITS_PER_LINE]
    elif name.startswith("wlc"):
        words = batch.words[compressor.line_compressible(batch)]
    else:
        words = batch.words
    reps = -(-lines // max(1, words.shape[0]))
    return np.tile(words, (reps, 1))[:lines]


def _din_eligible_lines(encoder, batch, lines):
    """``lines`` DIN-encodable words (FPC+BDI output within the 360-bit budget)."""
    words = batch.words[encoder.compressor.sizes_bits(batch) <= MAX_COMPRESSED_BITS]
    reps = -(-lines // max(1, words.shape[0]))
    return np.tile(words, (reps, 1))[:lines]


def bench_encoder_throughput(benchmark):
    lines = int(os.environ.get("REPRO_BENCH_KERNEL_LINES", "4096"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2018"))
    pool = generate_benchmark_trace("gcc", max(lines, 4096), seed).new

    def measure():
        results = {}
        for name, compressor in _compressors():
            words = _eligible_lines(name, compressor, pool, lines)
            sub = LineBatch(words)

            start = time.perf_counter()
            packed = compressor.compress_batch(sub)
            batch_s = time.perf_counter() - start

            start = time.perf_counter()
            scalar_streams = [
                compressor.compress_line(words[i]) for i in range(len(sub))
            ]
            scalar_s = time.perf_counter() - start

            # Contract: batch streams == scalar streams, and the batch
            # decode round-trips the original lines.
            for i in range(0, len(sub), max(1, len(sub) // VERIFY_LINES)):
                assert np.array_equal(packed.line(i).bits, scalar_streams[i].bits)
            assert np.array_equal(compressor.decompress_batch(packed), words)

            results[name] = {"lines": len(sub), "scalar_s": scalar_s, "batch_s": batch_s}

        # DIN payload encode: the 3-to-4 expansion plus the batched BCH
        # parity (one GF(2) reduction over the whole batch) against the
        # per-line wrapper, which runs the same path one line at a time.
        encoder = DINEncoder()
        words = _din_eligible_lines(encoder, pool, lines)
        sub = LineBatch(words)
        start = time.perf_counter()
        batch_bytes = encoder._encode_lines_bytes(sub)
        batch_s = time.perf_counter() - start
        scalar_count = max(1, len(sub) // 8)  # per-line path is slow; sample
        start = time.perf_counter()
        scalar_bytes = [encoder._encode_line_bytes(words[i]) for i in range(scalar_count)]
        scalar_s = (time.perf_counter() - start) * (len(sub) / scalar_count)
        for i in range(0, scalar_count, max(1, scalar_count // VERIFY_LINES)):
            assert np.array_equal(batch_bytes[i], scalar_bytes[i])
        results["din"] = {"lines": len(sub), "scalar_s": scalar_s, "batch_s": batch_s}
        return results

    results = run_once(benchmark, measure)

    payload = {
        "lines": lines,
        "scalar_lines_per_s": {},
        "batch_lines_per_s": {},
        "speedup": {},
    }
    rows = {}
    for name, cell in results.items():
        scalar_rate = cell["lines"] / cell["scalar_s"] if cell["scalar_s"] else 0.0
        batch_rate = cell["lines"] / cell["batch_s"] if cell["batch_s"] else 0.0
        speedup = scalar_rate and batch_rate / scalar_rate
        payload["scalar_lines_per_s"][name] = scalar_rate
        payload["batch_lines_per_s"][name] = batch_rate
        payload["speedup"][name] = speedup
        rows[name] = {
            "scalar_lines_per_s": scalar_rate,
            "batch_lines_per_s": batch_rate,
            "speedup": speedup,
        }
    write_json("encoder_throughput", payload)
    write_result(
        "encoder_throughput",
        format_series_table(
            rows,
            title=f"Encoder throughput: {lines}-line batches, biased content",
            row_header="compressor",
        ),
    )

    if lines >= SPEEDUP_ASSERT_LINES:
        assert payload["speedup"]["bdi"] >= MIN_SPEEDUP, payload["speedup"]
        assert payload["speedup"]["fpc"] >= MIN_SPEEDUP, payload["speedup"]
        assert payload["speedup"]["din"] >= MIN_SPEEDUP, payload["speedup"]
