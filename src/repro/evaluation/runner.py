"""Trace-driven evaluation runner.

The runner mirrors the paper's simulator: for every write request of a trace
it asks a scheme to encode the new data against the (reconstructed or tracked)
stored states and accumulates the three per-request metrics -- write energy
(split into data and auxiliary components), updated cells, and expected
write-disturbance errors.  Traces are processed in fixed-size chunks so that
the vectorised encoders stay within a bounded memory footprint.

Disturbance sampling is deterministic *per chunk*: every chunk draws from its
own :class:`numpy.random.SeedSequence` stream derived from
``(config.seed, unit_index, chunk_index)``, so results do not depend on how
chunks are scheduled.  This is what lets the parallel engine in
:mod:`repro.evaluation.parallel` produce bit-identical results for any worker
count -- see :func:`chunk_stream`.

The multi-scheme helpers (:func:`evaluate_schemes`,
:func:`evaluate_benchmarks`) accept an ``n_jobs`` argument and fan their work
units out over the parallel engine; ``n_jobs=1`` (the default) keeps the
exact serial path.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..coding.base import EncodedBatch, WriteEncoder
from ..core.config import DEFAULT_EVALUATION_CONFIG, EvaluationConfig
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel, vulnerable_cells
from ..core.metrics import WriteMetrics
from ..core.symbols import changed_cells, count_states
from ..obs import count, gauge, is_active, peak_rss_bytes, span
from ..workloads.trace import WriteTrace

if TYPE_CHECKING:  # pragma: no cover - typing only (parallel imports this module)
    from .parallel import ParallelRunner


def metrics_from_encoded(
    encoded: EncodedBatch,
    encoder: WriteEncoder,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    rng: Optional[np.random.Generator] = None,
) -> WriteMetrics:
    """Derive the paper's per-request metrics from an encoded batch.

    Parameters
    ----------
    encoded:
        Result of :meth:`WriteEncoder.encode_batch` (or the stateful variant).
    encoder:
        The encoder that produced the batch (supplies the energy model).
    disturbance_model:
        Disturbance-rate model; expected-value counting is used unless ``rng``
        is given, in which case errors are Monte-Carlo sampled.

    The batch stays on state bytes.  Energy and updated cells are exact
    integer counts: ``n_s``, the rewritten cells programmed to state ``s``
    (split into data and auxiliary cells), counted per state byte from
    packed rewrite masks (:func:`~repro.core.symbols.count_states`), gives
    ``energy = sum_s w_s * n_s`` and ``updated = sum_s n_s``.  Every shipped
    energy model is integral, so these equal the per-cell float sums bit for
    bit whatever the order.  A non-integral model (Python API only) runs the
    same code and rounds once per state instead of once per cell.  Expected
    disturbance is the one order-sensitive sum: an ``(n, total_cells)``
    float64 array of per-cell values, one gather per stored byte, summed per
    line, then over lines.  Sampled disturbance is an integer count from one
    draw per cell.
    """
    changed = changed_cells(encoded.data, encoded.old_data)
    aux_changed = encoded.aux != encoded.old_aux
    appended = np.bincount(encoded.aux[aux_changed], minlength=4)
    rewritten = count_states(encoded.data, changed) + appended
    rewritten_aux = appended
    if encoded.aux_bytes is not None:
        aux_marks = changed & encoded.aux_bytes.view("<u8")
        rewritten_aux = rewritten_aux + count_states(encoded.data, aux_marks)
    rewritten_data = rewritten - rewritten_aux
    weights = encoder.energy_model.write_energy_per_state
    with span("disturbance", scheme=encoder.name, lines=len(encoded)):
        stored = (encoded.old_data, encoded.old_aux, *vulnerable_cells(changed, aux_changed))
        if rng is None:
            disturbance = float(
                disturbance_model.expected_errors_of_bytes(*stored).sum(axis=-1).sum()
            )
        else:
            disturbance = float(disturbance_model.sampled_errors_of_bytes(*stored, rng))
    return WriteMetrics(
        requests=len(encoded),
        data_energy_pj=float(weights @ rewritten_data),
        aux_energy_pj=float(weights @ rewritten_aux),
        updated_data_cells=float(rewritten_data.sum()),
        updated_aux_cells=float(rewritten_aux.sum()),
        disturbance_errors=disturbance,
        compressed_lines=int(encoded.compressed.sum()),
        encoded_lines=int(encoded.encoded.sum()),
    )


def n_chunks_of(trace: WriteTrace, config: EvaluationConfig) -> int:
    """Number of chunks ``trace`` is split into under ``config.chunk_size``."""
    return -(-len(trace) // config.chunk_size) if len(trace) else 0


def _record_peak_memory() -> None:
    """Gauge this process's peak memory (no-op unless observing).

    ``peak_rss_bytes`` max-merges across worker processes into the run-wide
    peak; the tracemalloc gauge only exists when the caller already traces
    allocations.
    """
    if not is_active():
        return
    rss = peak_rss_bytes()
    if rss is not None:
        gauge("peak_rss_bytes", rss)
    if tracemalloc.is_tracing():
        _, peak = tracemalloc.get_traced_memory()
        gauge("tracemalloc_peak_bytes", float(peak))


def evaluate_chunk(
    encoder: WriteEncoder,
    windows: Sequence[Tuple[WriteTrace, Optional[np.random.SeedSequence]]],
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
) -> List[WriteMetrics]:
    """Encode consecutive chunks with one ``encode_batch`` call; reduce each alone.

    This is the unit of work shared by the serial runner and the parallel
    engine.  ``windows`` pairs each chunk with its disturbance-sampling
    stream (:func:`chunk_stream`, or ``None`` for expected-value counting).
    The chunks' lines are concatenated and encoded once; encoding is per
    line, so each chunk's :meth:`~repro.coding.base.EncodedBatch.window` is
    exactly that chunk's own encode, and ``metrics_from_encoded`` reduces it
    on the chunk's own stream.  Returns one :class:`WriteMetrics` per chunk,
    each bit-identical to evaluating that chunk alone.
    """
    batch = WriteTrace.concat([chunk for chunk, _ in windows])
    with span("encode_batch", scheme=encoder.name, lines=len(batch)):
        encoded = encoder.encode_batch(batch.new, batch.old)
    count("lines_encoded", len(batch), scheme=encoder.name)
    per_chunk, start = [], 0
    for chunk, stream in windows:
        rng = np.random.default_rng(stream) if stream is not None else None
        with span("metrics", scheme=encoder.name, lines=len(chunk)):
            window = encoded.window(start, start + len(chunk))
            per_chunk.append(metrics_from_encoded(window, encoder, disturbance_model, rng))
        start += len(chunk)
    _record_peak_memory()
    return per_chunk


def chunk_stream(
    config: EvaluationConfig, unit_index: int, chunk_index: int
) -> Optional[np.random.SeedSequence]:
    """RNG stream of one evaluation chunk (Monte-Carlo disturbance sampling).

    Stream ``c`` of work unit ``u`` is the :class:`numpy.random.SeedSequence`
    with entropy ``config.seed`` and spawn key ``(u, c)`` -- exactly what
    ``SeedSequence(config.seed, spawn_key=(u,)).spawn(...)`` would hand out,
    but computed lazily, so streaming consumers that do not know the chunk
    count upfront draw the very same streams as the materialised path.
    Returns ``None`` when ``config.sample_disturbance`` is off.  A chunk's
    random draws depend only on the evaluation seed and the chunk's logical
    position -- never on which process evaluates it or in which order; the
    parallel engine relies on this to stay bit-identical to the serial path
    for any ``n_jobs``.
    """
    if not config.sample_disturbance:
        return None
    return np.random.SeedSequence(
        entropy=config.seed, spawn_key=(unit_index, chunk_index)
    )


def evaluate_trace(
    encoder: WriteEncoder,
    trace,
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    unit_index: int = 0,
) -> WriteMetrics:
    """Evaluate one scheme on one write trace and return the aggregate metrics.

    ``trace`` is a :class:`~repro.workloads.trace.WriteTrace` or any
    :class:`~repro.workloads.trace.ChunkSource` -- the loop only ever holds
    one chunk, so evaluating a streaming source keeps memory bounded
    regardless of the trace length.  ``unit_index`` selects the
    disturbance-sampling stream when the trace is one of several work units
    evaluated together (see :mod:`.parallel`); the default of 0 matches a
    standalone run.
    """
    total = WriteMetrics()
    for chunk_index, chunk in enumerate(trace.chunks(config.chunk_size)):
        stream = chunk_stream(config, unit_index, chunk_index)
        total.merge(evaluate_chunk(encoder, [(chunk, stream)], disturbance_model)[0])
    return total


@contextmanager
def _engine(
    runner: Optional["ParallelRunner"],
    n_jobs: int,
    backend: str,
    task_timeout: Optional[float],
) -> Iterator["ParallelRunner"]:
    """The runner for one multi-unit helper call, with its watchdog bound.

    ``runner`` (or a one-shot runner of ``n_jobs`` x ``backend``) gets
    ``task_timeout`` for this call only: a caller's runner gets its previous
    value back afterwards, so its later calls keep their own watchdog.
    """
    from .parallel import ParallelRunner

    engine = runner or ParallelRunner(n_jobs, backend=backend)
    saved = engine.task_timeout
    if task_timeout is not None:
        engine.task_timeout = task_timeout
    try:
        yield engine
    finally:
        engine.task_timeout = saved


def evaluate_schemes(
    encoders: Sequence[WriteEncoder],
    trace: WriteTrace,
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    n_jobs: int = 1,
    runner: Optional["ParallelRunner"] = None,
    backend: str = "process",
    task_timeout: Optional[float] = None,
) -> Dict[str, WriteMetrics]:
    """Evaluate several schemes on the same trace; keyed by scheme name.

    If two encoders share a name, the last one wins (dict semantics), matching
    the historical behaviour.  Passing ``runner`` reuses an existing (e.g.
    persistent) :class:`~repro.evaluation.parallel.ParallelRunner` instead of
    building a throwaway pool; otherwise ``backend`` selects the throwaway
    pool's executor kind (results are bit-identical either way).
    """
    from .parallel import WorkUnit

    units = [
        WorkUnit(encoder.name, encoder, trace, config, disturbance_model)
        for encoder in encoders
    ]
    with _engine(runner, n_jobs, backend, task_timeout) as engine:
        per_unit = engine.map(units)
    return {encoder.name: metrics for encoder, metrics in zip(encoders, per_unit)}


def evaluate_benchmarks(
    encoder: WriteEncoder,
    traces: Mapping[str, WriteTrace],
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    n_jobs: int = 1,
    runner: Optional["ParallelRunner"] = None,
    backend: str = "process",
    task_timeout: Optional[float] = None,
) -> Dict[str, WriteMetrics]:
    """Evaluate one scheme across a set of per-benchmark traces."""
    from .parallel import WorkUnit

    units = [
        WorkUnit(name, encoder, trace, config, disturbance_model)
        for name, trace in traces.items()
    ]
    with _engine(runner, n_jobs, backend, task_timeout) as engine:
        return engine.run(units)


def average_metrics(per_benchmark: Mapping[str, WriteMetrics]) -> WriteMetrics:
    """Combine per-benchmark metrics into a single average (Figure 8's 'Ave.')."""
    return WriteMetrics.combine(per_benchmark.values())
