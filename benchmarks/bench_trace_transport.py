"""Zero-copy trace transport benchmark: pickled vs spilled vs mmap.

``bench_trace_transport`` compares how chunk data reaches the workers --
pickled arrays (the legacy path), an mmap'd spill file, and an mmap'd
corpus file -- on one long random trace: per-chunk IPC payload bytes,
end-to-end wall clock, and exact metric equality across transports.  The
engine's default exporter spills the in-memory trace once to a temporary
``.wtrc`` and describes the corpus copy by its own file; the pickle row
patches the exporter to export nothing, which is what a trace whose spill
cannot be written gets.
Results land in ``BENCH_trace_transport.json``, which CI uploads as an
artifact and ``repro bench compare`` gates against
``benchmarks/baselines/trace_transport.json``.

The per-chunk IPC payload sizes are deterministic for a given trace length
and chunk size, so their gates are tight; wall clocks are machine noise and
deliberately ungated.  A payload pickles its descriptor's absolute path, so
the corpus copy and the spill files are written under one fixed root,
``IPC_ROOT``: the gates then read the same bytes whatever ``TMPDIR`` is.
``REPRO_BENCH_TRANSPORT_LINES`` sets the trace length (default one million
lines).

This lived in ``bench_parallel_scaling.py`` until the transport gates got
their own checked-in baseline; as its own bench it gates independently of
the scaling study.
"""

import os
import pickle
import tempfile
import time
from pathlib import Path
from unittest import mock

from repro.bench import BenchSpec, Gate, run_once, write_json, write_result
from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.evaluation import format_series_table
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.traces.store import load_trace, save_trace
from repro.traces.transport import TraceExporter
from repro.workloads.generator import generate_random_trace

BENCHMARK = BenchSpec(
    figure="transport",
    title="Zero-copy trace transport: per-chunk IPC and wall clock",
    perf_artifacts=(
        "trace_transport.txt",
        "BENCH_trace_transport.json",
    ),
    env=(
        "REPRO_BENCH_TRANSPORT_LINES",
        "REPRO_BENCH_SEED",
    ),
    gates=(
        Gate(
            artifact="BENCH_trace_transport.json",
            metric="per_chunk_ipc_bytes.mmap",
            direction="lower",
            tolerance_pct=10.0,
            context=("lines", "chunk_size"),
        ),
        Gate(
            artifact="BENCH_trace_transport.json",
            metric="per_chunk_ipc_bytes.spill",
            direction="lower",
            tolerance_pct=10.0,
            context=("lines", "chunk_size"),
        ),
        Gate(
            artifact="BENCH_trace_transport.json",
            metric="ipc_reduction_vs_pickle.mmap",
            direction="higher",
            tolerance_pct=10.0,
            context=("lines", "chunk_size"),
        ),
    ),
)


#: Root of every file whose path a measured payload carries.
IPC_ROOT = "/tmp"


def bench_trace_transport(benchmark):
    """Per-chunk IPC and wall clock: pickled vs spilled vs mmap transport."""
    lines = int(os.environ.get("REPRO_BENCH_TRANSPORT_LINES", "1000000"))
    n_jobs = os.cpu_count() or 1
    config = EvaluationConfig(chunk_size=2048)
    encoder = make_scheme("baseline")

    def measure():
        trace = generate_random_trace(lines, seed=2018)
        results = {}
        with tempfile.TemporaryDirectory() as tmp:
            corpus_trace = load_trace(save_trace(trace, Path(tmp) / "random.wtrc"))

            # Per-chunk IPC payload: the pickled size of the first dispatched
            # task, one full chunk.  The default exporter spills the in-memory
            # trace to a .wtrc under IPC_ROOT and describes the corpus-backed
            # one by its own file.
            runner = ParallelRunner(n_jobs)
            unit_mem = [WorkUnit("t", encoder, trace, config)]
            unit_mmap = [WorkUnit("t", encoder, corpus_trace, config)]

            def shard_bytes(units, descriptors=None):
                return len(pickle.dumps(next(runner._shards(units, descriptors))))

            with TraceExporter() as exporter:
                per_chunk = {
                    "pickle": shard_bytes(unit_mem),
                    "spill": shard_bytes(unit_mem, {id(trace): exporter.export(trace)}),
                    "mmap": shard_bytes(
                        unit_mmap, {id(corpus_trace): exporter.export(corpus_trace)}
                    ),
                }

            # End-to-end wall clock per transport (metrics must be identical).
            # The engine spills or mmaps by trace; the pickle row patches the
            # exporter to export nothing, as when the spill cannot be written.
            def timed_map(units):
                start = time.perf_counter()
                metrics = ParallelRunner(n_jobs).map(units)[0]
                return metrics, time.perf_counter() - start

            wall = {}
            metrics = {}
            with mock.patch.object(TraceExporter, "export", return_value=None):
                metrics["pickle"], wall["pickle"] = timed_map(unit_mem)
            metrics["spill"], wall["spill"] = timed_map(unit_mem)
            metrics["mmap"], wall["mmap"] = timed_map(unit_mmap)
            results["per_chunk_ipc_bytes"] = per_chunk
            results["wall_clock_s"] = wall
            results["metrics"] = metrics
        return results

    with mock.patch.object(tempfile, "tempdir", IPC_ROOT):
        results = run_once(benchmark, measure)
    per_chunk = results["per_chunk_ipc_bytes"]
    wall = results["wall_clock_s"]
    metrics = results["metrics"]

    payload = {
        "lines": lines,
        "chunk_size": config.chunk_size,
        "n_jobs": n_jobs,
        "per_chunk_ipc_bytes": per_chunk,
        "ipc_reduction_vs_pickle": {
            name: per_chunk["pickle"] / size
            for name, size in per_chunk.items()
            if name != "pickle" and size
        },
        "wall_clock_s": wall,
    }
    write_json("trace_transport", payload)
    rows = {
        name: {
            "per_chunk_bytes": per_chunk.get(name, 0),
            "wall_clock_s": wall[name],
            "ipc_reduction": payload["ipc_reduction_vs_pickle"].get(name, 1.0),
        }
        for name in wall
    }
    write_result(
        "trace_transport",
        format_series_table(
            rows,
            title=f"Trace transport: {lines} lines, chunk {config.chunk_size}, "
            f"{n_jobs} workers",
            row_header="transport",
        ),
    )

    # Contract: identical metrics on every transport, and descriptor dispatch
    # must shrink the per-chunk IPC payload vs pickled arrays.
    assert metrics["mmap"] == metrics["pickle"]
    assert metrics["spill"] == metrics["pickle"]
    assert per_chunk["mmap"] < per_chunk["pickle"]
    assert per_chunk["spill"] < per_chunk["pickle"]
