"""Parallel trace-evaluation engine.

The paper's headline results (Figures 8-14) sweep many encoder configurations
over many per-benchmark write traces.  Every (encoder, trace, sweep-point)
combination is independent, so the sweep is embarrassingly parallel; this
module provides the harness that exploits that.

:class:`ParallelRunner` fans *work units* -- an encoder evaluated on a trace
under an :class:`~repro.core.config.EvaluationConfig` -- out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Each unit is further split
into its evaluation chunks (the same ``config.chunk_size`` chunks the serial
runner uses).  A full chunk is an executor task of its own, so even a single
long trace spreads across all workers; consecutive short chunks of one
encoder -- short traces and tails -- are packed into one task of at most
``chunk_size`` lines, which encodes them with one ``encode_batch`` call.

Determinism is a hard guarantee, not a best effort:

* each unit's chunk results are reduced with :meth:`WriteMetrics.merge
  <repro.core.metrics.WriteMetrics.merge>` in chunk (= submission) order,
  so floating-point accumulation is identical for any worker count;
* Monte-Carlo disturbance sampling draws from per-chunk
  :class:`numpy.random.SeedSequence` streams spawned from
  ``(config.seed, unit_index)`` (see
  :func:`~repro.evaluation.runner.chunk_stream`), so sampled error counts do
  not depend on scheduling either.

``n_jobs=1`` (the default) executes the exact serial path in-process -- no
executor, no pickling -- which makes it both the fallback and the reference
the property tests compare the parallel path against bit-for-bit.

Every call -- materialised traces, streaming sources, or a mix; ``map`` or
``starmap`` -- takes one dispatch path:

* **tasks** -- :meth:`ParallelRunner._shards` yields the tasks (a full
  chunk, or a packed run of short ones), lazily: every materialised
  :class:`WriteTrace` unit's first, then every streaming
  :class:`~repro.workloads.trace.ChunkSource` unit's;
* **zero-copy trace transport** -- when a call dispatches to worker
  processes, each materialised trace is exported once through
  :class:`repro.traces.transport.TraceExporter` as an mmap descriptor of its
  corpus file or of a spill file written once (pickling only if that write
  fails), and workers receive ``(descriptor, start, stop)`` triples; every
  transport is bit-identical by construction;
* **bounded dispatch** -- :meth:`ParallelRunner._execute` runs a call with
  ``n_jobs=1`` or a single chunk inline and otherwise keeps at most
  ``window`` tasks that carry chunk data in flight, so a trace larger than
  RAM evaluates with memory bounded by ``window x chunk_size`` lines (tasks
  that carry only descriptors go to the pool at once) while the
  submission-order reduction keeps the result bit-identical to the serial
  path;
* **one pool owner** -- the worker pool and the exporter live on the runner.
  A persistent runner (a context manager, ``persistent=True``, or
  :func:`shared_runner`) keeps them across calls, so sweep helpers and
  experiment drivers stop paying pool start-up per call; a one-shot runner
  closes them at the end of each call.
"""

from __future__ import annotations

import atexit
import logging
import os
import random
import time
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..coding.base import WriteEncoder
from ..core.config import DEFAULT_EVALUATION_CONFIG, EvaluationConfig
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from ..core.errors import ConfigurationError
from ..core.metrics import WriteMetrics
from ..faults import FaultAction, TransientError
from ..faults import execute as _execute_fault
from ..faults import take as _take_fault
from ..obs import ObsPayload, TaskContext, absorb, collect, count, observe, span, task_context
from ..traces.transport import MmapTraceDescriptor, TraceExporter, attach_trace
from ..workloads.trace import ChunkSource, WriteTrace
from .runner import chunk_stream, evaluate_chunk, n_chunks_of

logger = logging.getLogger(__name__)


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None``, ``0`` and ``-1`` all mean "use every available core" (the
    joblib convention); positive values are taken literally.
    """
    if n_jobs is None or n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ConfigurationError(f"n_jobs must be positive, 0, -1 or None: {n_jobs}")
    return int(n_jobs)


@dataclass(frozen=True)
class WorkUnit:
    """One independent piece of sweep work: a scheme evaluated on a trace.

    ``key`` labels the unit for reduction -- units sharing a key have their
    metrics merged (in unit order) by :meth:`ParallelRunner.run`.
    Typical keys: a scheme name, a benchmark name, a granularity, or a
    ``(sweep-point, role)`` tuple.

    ``trace`` is a materialised :class:`WriteTrace` or any re-iterable
    :class:`~repro.workloads.trace.ChunkSource`; both are dispatched the
    same way (see :meth:`ParallelRunner.map`).
    """

    key: Hashable
    encoder: WriteEncoder
    trace: Union[WriteTrace, ChunkSource]
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL


class _Window(NamedTuple):
    """One evaluation chunk of one work unit inside a task.

    ``stream`` is the chunk's disturbance-sampling stream and ``[start,
    stop)`` its line range in the unit's trace.  The chunk's data travels
    either inline (``chunk``, the pickled fallback and the in-process
    paths) or by reference (``descriptor`` naming a corpus or spill
    ``.wtrc`` file); the two are mutually exclusive.
    """

    unit_index: int
    chunk_index: int
    stream: Optional[np.random.SeedSequence]
    chunk: Optional[WriteTrace]
    descriptor: Optional[MmapTraceDescriptor]
    start: int
    stop: int

    def lines(self) -> WriteTrace:
        """The chunk's lines, read through the transport when described."""
        if self.chunk is not None:
            return self.chunk
        return attach_trace(self.descriptor)[self.start:self.stop]


@dataclass(frozen=True)
class _Shard:
    """One dispatched task: a run of consecutive chunks evaluated together.

    The ``windows`` are consecutive chunks in generation order that share
    ``encoder``, ``disturbance_model`` and ``chunk_size`` and together hold
    at most ``chunk_size`` lines (see :meth:`ParallelRunner._shards`).
    ``obs_ctx`` carries the parent's observation context (when tracing is
    active at dispatch) so the worker's spans stitch under the dispatching
    span; it is ``None`` -- and costs nothing -- otherwise.
    """

    encoder: WriteEncoder
    disturbance_model: DisturbanceModel
    windows: Tuple[_Window, ...]
    obs_ctx: Optional[TaskContext] = None
    #: Fired fault directive riding on this dispatch (chaos testing only).
    #: Attached by the parent at task-generation time -- dispatch order is
    #: deterministic, worker scheduling is not -- and stripped whenever the
    #: task is resubmitted, so each planned fault fires exactly once and the
    #: recovery attempt runs clean.
    inject: Optional[FaultAction] = None


def _evaluate_shard(
    shard: _Shard,
) -> Tuple[List[Tuple[int, WriteMetrics]], Optional[ObsPayload]]:
    """Evaluate one task; runs in a worker process (or inline when serial).

    Returns ``(unit_index, metrics)`` per window, in window order, plus the
    worker's observability payload.  The parent merges the metrics in
    submission order, which keeps each unit's chunks in chunk order, so the
    reduction is the same for any worker count.  The payload is ``None``
    unless the task ran in a separate process during an active observation,
    in which case
    the parent absorbs it in the same submission order as the metrics,
    keeping the span/metric aggregation deterministic too.
    """
    if shard.inject is not None:
        _execute_fault(shard.inject)
    windows = shard.windows
    with collect(shard.obs_ctx) as collector:
        with span(
            "evaluate_shard",
            unit=windows[0].unit_index,
            chunk=windows[0].chunk_index,
            windows=len(windows),
            lines=sum(window.stop - window.start for window in windows),
            scheme=shard.encoder.name,
        ):
            metrics = evaluate_chunk(
                shard.encoder,
                [(window.lines(), window.stream) for window in windows],
                shard.disturbance_model,
            )
    units = [window.unit_index for window in windows]
    return list(zip(units, metrics)), collector.payload()


def _task(group: Tuple, windows: List[_Window], obs_ctx: Optional[TaskContext]) -> _Shard:
    """The task of ``windows`` under ``group``'s encoder and model, armed by the fault plan.

    Called once per generated task, in the parent's deterministic generation
    order: the ``task`` site counts every task, the ``attach`` site
    additionally counts tasks that will resolve a transport descriptor, and
    a fired fault rides on the task as its ``inject`` directive.  Costs one
    function call when no fault plan is active.
    """
    encoder, disturbance_model, _ = group
    action = _take_fault("task")
    if action is None and any(window.descriptor is not None for window in windows):
        action = _take_fault("attach")
    return _Shard(encoder, disturbance_model, tuple(windows), obs_ctx, action)


def _strip_inject(item: Any) -> Any:
    """A copy of ``item`` without its fault directive (for resubmission)."""
    if isinstance(item, _Shard) and item.inject is not None:
        return replace(item, inject=None)
    return item


def _terminate_executor(executor: Executor) -> None:
    """Tear a (possibly broken or hung) pool down without blocking.

    A plain ``shutdown(wait=True)`` would block behind a hung worker, so the
    process backend's workers are terminated first; thread workers cannot be
    killed, so a hung thread is simply abandoned (its eventual result is
    discarded -- tasks are pure, so that is safe).
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
    executor.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class _ExportedTrace:
    """Placeholder for a :class:`WriteTrace` argument of a ``starmap`` task.

    Carries the transport descriptor instead of the trace's arrays; the
    worker resolves it back into a (view-backed) trace via the per-process
    attachment cache before calling the task function.
    """

    descriptor: MmapTraceDescriptor


def _call_star(
    task: Tuple[Callable[..., Any], Tuple, Optional[TaskContext]],
) -> Tuple[Any, Optional[ObsPayload]]:
    """Apply ``func(*args)``; module-level so it pickles into workers."""
    func, args, obs_ctx = task
    args = tuple(
        attach_trace(arg.descriptor) if isinstance(arg, _ExportedTrace) else arg
        for arg in args
    )
    with collect(obs_ctx) as collector:
        with span("starmap_task", task=getattr(func, "__name__", str(func))):
            result = func(*args)
    return result, collector.payload()


class ParallelRunner:
    """Fan (encoder x trace x sweep-point) work units out over worker processes.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (default) runs the exact serial path in the
        current process; ``None``, ``0`` or ``-1`` use every available core.
    backend:
        ``"process"`` (default) fans tasks out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`; ``"thread"`` uses a
        :class:`~concurrent.futures.ThreadPoolExecutor` instead.  The encode
        hot path is vectorised ``numpy`` bit-twiddling that releases the GIL,
        so threads overlap almost as well as processes while skipping
        process start-up, pickling and trace export entirely (workers share
        the parent's memory) -- the right choice for small sweeps and
        short-lived runners.  Both backends share the submission-order
        reduction, so results are bit-identical across backends and worker
        counts.
    persistent:
        Keep the worker pool and the trace exports alive across calls until
        :meth:`close` (entering the runner as a context manager implies
        this).  A one-shot runner is the same runner closing itself at the
        end of every ``map()``/``run()``/``starmap()`` call.
    window:
        In-flight cap of every pooled call on tasks that carry chunk data
        (streamed, pickled-fallback and thread-backend chunks, ``starmap``
        items; not tasks of transport descriptors only).  Tasks are produced
        lazily and at most ``window`` such tasks exist between the producer
        and the reducer -- the backpressure that bounds a streaming
        :class:`~repro.workloads.trace.ChunkSource` to ``window x
        chunk_size`` lines no matter how long it is.  Defaults to
        ``4 x n_jobs``.
    task_timeout:
        Per-task watchdog in seconds (``None``, the default, disables it).
        When the oldest in-flight task exceeds the timeout the pool is
        presumed hung: it is rebuilt and the lost work resubmitted, exactly
        like a broken pool.
    task_retries:
        Attempts beyond the first granted to a task failing with a
        :class:`~repro.faults.TransientError` before the error propagates.
    max_pool_rebuilds:
        Consecutive pool deaths (broken pool or watchdog timeout) tolerated
        before the runner degrades to in-process serial execution for the
        rest of the call instead of failing it.  Any successfully reduced
        task resets the count.
    retry_backoff_s:
        Base of the jittered exponential backoff slept before each pool
        rebuild (``base * 2**(n-1)``, +-50% jitter).

    **Self-healing.**  Worker failures do not abort a run: a broken process
    pool (e.g. an OOM-killed worker) or a watchdog timeout rebuilds the pool
    and resubmits only the tasks whose results have not been reduced yet; a
    task failing with a :class:`~repro.faults.TransientError` is retried on
    its own.  Because the reduction consumes results strictly in submission
    order and every task is a pure function of its chunks, recovered runs
    are bit-identical to clean runs -- recovery is visible only as
    ``pool_rebuilds``/``tasks_retried``/``task_timeouts`` observability
    counters (and a logged warning when the runner degrades to serial).

    Results are bit-identical for every ``n_jobs`` value, backend and trace
    transport -- see the module docstring for how seeding and reduction
    order guarantee this.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        persistent: bool = False,
        window: Optional[int] = None,
        backend: str = "process",
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
        max_pool_rebuilds: int = 3,
        retry_backoff_s: float = 0.1,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        if backend not in ("process", "thread"):
            raise ConfigurationError(
                f"unknown backend {backend!r} (choose 'process' or 'thread')"
            )
        self.backend = backend
        self.persistent = persistent
        if window is not None and window < 1:
            raise ConfigurationError(f"window must be a positive integer: {window}")
        self.window = window
        if task_timeout is not None and not task_timeout > 0:
            raise ConfigurationError(f"task_timeout must be positive: {task_timeout}")
        self.task_timeout = task_timeout
        if task_retries < 0:
            raise ConfigurationError(f"task_retries must be >= 0: {task_retries}")
        self.task_retries = task_retries
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0: {max_pool_rebuilds}"
            )
        self.max_pool_rebuilds = max_pool_rebuilds
        self.retry_backoff_s = retry_backoff_s
        self._executor: Optional[Executor] = None
        self._exporter: Optional[TraceExporter] = None
        self._enter_depth = 0
        self._persistent_before_enter = persistent

    # ------------------------------------------------------------------ #
    # Pool lifetime
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ParallelRunner":
        # Depth-counted so nested `with` blocks on one runner neither close
        # the pool mid-outer-block nor clobber the saved mode.
        if self._enter_depth == 0:
            self._persistent_before_enter = self.persistent
            self.persistent = True
        self._enter_depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._enter_depth -= 1
        if self._enter_depth > 0:
            return
        self.close()
        # Restore the pre-enter mode: a runner reused after its `with` block
        # behaves like one-shot again instead of silently rebuilding a pool
        # and exporter that nothing would ever shut down.
        self.persistent = self._persistent_before_enter

    def close(self) -> None:
        """Shut down the worker pool and release the trace exports (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._exporter is not None:
            self._exporter.release()
            self._exporter = None

    def _end_call(self, values: Iterable[Any]) -> None:
        """Close a one-shot runner; prune a persistent one's exports to ``values``.

        A persistent runner keeps the exports of the traces this call used,
        so the next call over the same (memoised) traces reuses one spill
        file per trace and the workers' attachment caches hit.  Every other
        spill file is deleted -- even when this call exported nothing -- so
        looping over ever-new traces cannot fill the temporary directory.
        """
        if not self.persistent:
            self.close()
        elif self._exporter is not None:
            self._exporter.prune(id(value) for value in values)

    # ------------------------------------------------------------------ #
    # Work-unit evaluation
    # ------------------------------------------------------------------ #
    def _shards(
        self,
        units: Sequence[WorkUnit],
        descriptors: Optional[Mapping[int, MmapTraceDescriptor]] = None,
        obs_ctx: Optional[TaskContext] = None,
    ) -> Iterator[_Shard]:
        """The call's tasks: runs of consecutive chunks, ready work first.

        Every materialised (:class:`WriteTrace`) unit's tasks come before any
        streaming unit's, so the pool works on ready chunks while the parent
        produces streamed ones; each group keeps unit order and each unit
        chunk order.  Chunks come from ``unit.trace.chunks``, lazily, so a
        streaming source advances only as fast as the consumer pulls.  One
        task packs a run of consecutive chunks of one group that share one
        encoder object (encoders compare by identity), equal disturbance
        models and one ``chunk_size``, and that together hold at most
        ``chunk_size`` lines: a full chunk is a task of its own, so only
        short traces and tails share one.  A full task is yielded at once,
        any other once the chunk that starts the next task has been read or
        its group ends (no streamed chunk is read before the materialised
        tasks are out).  A unit whose trace has a transport descriptor
        (``descriptors`` is keyed by ``id(trace)``, see :meth:`_export`)
        ships each chunk as its ``[start, stop)`` line range instead of its
        data.  Each chunk's disturbance stream is seeded from the unit's
        position in ``units``, as ``evaluate_trace(..., unit_index=i)``
        seeds it.
        """
        ready = [isinstance(unit.trace, WriteTrace) for unit in units]
        for group_ready in (True, False):
            run: List[_Window] = []
            lines = 0
            for unit_index, unit in enumerate(units):
                if ready[unit_index] != group_ready:
                    continue
                descriptor = descriptors.get(id(unit.trace)) if descriptors else None
                size = unit.config.chunk_size
                group = (unit.encoder, unit.disturbance_model, size)
                for chunk_index, chunk in enumerate(unit.trace.chunks(size)):
                    if run and (group != run_group or lines + len(chunk) > size):
                        yield _task(run_group, run, obs_ctx)
                        run, lines = [], 0
                    run_group = group
                    start = chunk_index * size
                    run.append(_Window(
                        unit_index,
                        chunk_index,
                        chunk_stream(unit.config, unit_index, chunk_index),
                        chunk if descriptor is None else None,
                        descriptor,
                        start,
                        start + len(chunk),
                    ))
                    lines += len(chunk)
                    if lines >= size:  # full: dispatch now, without reading ahead
                        yield _task(run_group, run, obs_ctx)
                        run, lines = [], 0
            if run:
                yield _task(run_group, run, obs_ctx)

    def map(self, units: Sequence[WorkUnit]) -> List[WriteMetrics]:
        """Evaluate every unit and return one :class:`WriteMetrics` per unit.

        ``map(units)[i]`` equals
        ``evaluate_trace(units[i].encoder, units[i].trace, ..., unit_index=i)``
        exactly, for any ``n_jobs``, backend and trace transport.

        Materialised units and streaming :class:`~repro.workloads.trace
        .ChunkSource` units -- alone or mixed in one call -- take the same
        path: lazily generated tasks (:meth:`_shards`), materialised traces
        exported once when the call dispatches to worker processes
        (:meth:`_export`), and bounded-window execution (:meth:`_execute`).
        """
        units = list(units)
        per_unit = [WriteMetrics() for _ in units]
        traces = [unit.trace for unit in units]
        try:
            with span(
                "parallel_map", units=len(units), n_jobs=self.n_jobs, backend=self.backend
            ):
                ready = sum(n_chunks_of(unit.trace, unit.config)
                            for unit in units if isinstance(unit.trace, WriteTrace))
                # A streaming unit counts as one chunk: its length is unknown
                # until it is read.
                n_chunks = ready + sum(not isinstance(trace, WriteTrace) for trace in traces)
                shards = self._shards(units, self._export(traces, n_chunks), task_context())
                # Pooling counts chunks.  When the materialised ones decide
                # it, no streamed chunk is read before their tasks are out.
                head = [] if self._pooled(ready) else list(islice(shards, 2))
                pooled = self._pooled(max(ready, sum(len(shard.windows) for shard in head)))
                for results, payload in self._execute(_evaluate_shard, chain(head, shards), pooled):
                    absorb(payload)
                    for unit_index, metrics in results:
                        per_unit[unit_index].merge(metrics)
        finally:
            self._end_call(traces)
        return per_unit

    def _export(self, values: Sequence[Any], n_chunks: int) -> Dict[int, MmapTraceDescriptor]:
        """Transport descriptors of the traces among ``values``, by ``id``.

        Only a call that hands its ``n_chunks`` chunks to worker *processes*
        exports anything: serial and single-chunk calls run inline, and
        thread workers share the parent's memory.  Each materialised
        :class:`WriteTrace` is exported once as an mmap descriptor -- of its
        corpus file, else of a spill file written for it; a trace whose
        spill fails is left out and its chunks travel pickled.  Streaming
        sources and other values are never exported.
        """
        if self.backend != "process" or not self._pooled(n_chunks):
            return {}
        if self._exporter is None:
            self._exporter = TraceExporter()
        exported: Dict[int, MmapTraceDescriptor] = {}
        for value in values:
            if isinstance(value, WriteTrace):
                descriptor = self._exporter.export(value)
                if descriptor is not None:
                    exported[id(value)] = descriptor
        return exported

    def run(self, units: Sequence[WorkUnit]) -> Dict[Hashable, WriteMetrics]:
        """Evaluate every unit and reduce the results by ``unit.key``.

        Keys appear in the order of their first unit; units sharing a key are
        merged in unit order (so e.g. per-granularity totals accumulate their
        traces exactly like the serial sweep loop did).
        """
        units = list(units)
        reduced: Dict[Hashable, WriteMetrics] = {}
        for unit, metrics in zip(units, self.map(units)):
            reduced.setdefault(unit.key, WriteMetrics()).merge(metrics)
        return reduced

    # ------------------------------------------------------------------ #
    # Generic fan-out
    # ------------------------------------------------------------------ #
    def starmap(self, func: Callable[..., Any], tasks: Iterable[Tuple]) -> List[Any]:
        """Apply ``func(*args)`` to every args-tuple, preserving order.

        Used by sweep helpers whose work is not metric-shaped (e.g. the
        compression-coverage study).  ``func`` must be picklable
        (module-level) when ``n_jobs > 1``.

        Any :class:`WriteTrace` argument rides the zero-copy transport
        exactly like a :meth:`map` unit's trace (:meth:`_export`): workers
        receive a ~100-byte mmap descriptor they resolve via the per-process
        attachment cache instead of each task pickling the trace's arrays.
        Results are identical either way.
        """
        tasks = [tuple(args) for args in tasks]
        values = [arg for args in tasks for arg in args]
        try:
            with span("starmap", tasks=len(tasks), n_jobs=self.n_jobs, backend=self.backend):
                shipped = {
                    key: _ExportedTrace(descriptor)
                    for key, descriptor in self._export(values, len(tasks)).items()
                }
                obs_ctx = task_context()
                calls = [
                    (func, tuple(shipped.get(id(arg), arg) for arg in args), obs_ctx)
                    for args in tasks
                ]
                results = []
                for result, payload in self._execute(_call_star, calls, self._pooled(len(calls))):
                    absorb(payload)
                    results.append(result)
                return results
        finally:
            self._end_call(values)

    # ------------------------------------------------------------------ #
    # Execution backend
    # ------------------------------------------------------------------ #
    def _pooled(self, n_chunks: int) -> bool:
        """Whether a call goes to the pool (else inline), by its chunk count.

        A ``map`` call counts its chunks, not its tasks: two chunks go to the
        pool even when they pack into one task, and the first two tasks are
        read only when the materialised chunks do not decide.  A ``starmap``
        call counts its tasks.
        """
        return self.n_jobs > 1 and n_chunks > 1

    def _pool(self) -> Executor:
        """The runner's worker pool of the configured :attr:`backend`, built lazily."""
        if self._executor is None:
            kind = ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
            self._executor = kind(max_workers=self.n_jobs)
        return self._executor

    def _execute(
        self, worker: Callable[[Any], Any], items: Iterable[Any], pooled: bool
    ) -> Iterator[Any]:
        """Run ``worker`` over ``items`` and yield the results in input order.

        ``items`` may be a lazy stream.  Unless ``pooled`` (see
        :meth:`_pooled`), everything runs inline, one item at a time.
        Otherwise items are pulled only while fewer than :attr:`window`
        (default ``4 x n_jobs``) tasks that carry chunk data are in flight,
        so the parent holds a bounded number of a stream's chunks however
        long it is (a descriptor-only task holds none and is not counted).
        Results come back in submission order on both backends, which the
        metric reduction relies on for float determinism; worker failures
        self-heal (see the class docstring).
        """
        if not pooled:
            for item in items:
                yield self._run_serial_item(worker, item)
            return
        yield from self._run_resilient(worker, iter(items), window=self.window or 4 * self.n_jobs)

    def _run_serial_item(self, worker: Callable[[Any], Any], item: Any) -> Any:
        """Execute one task inline, retrying bounded transient failures."""
        attempts = 0
        while True:
            try:
                return worker(item)
            except TransientError:
                attempts += 1
                if attempts > self.task_retries:
                    raise
                count("tasks_retried")
                item = _strip_inject(item)

    def _run_resilient(
        self, worker: Callable[[Any], Any], items: Iterator[Any], window: int
    ) -> Iterator[Any]:
        """The pooled execution engine: windowed dispatch that self-heals.

        Tasks are submitted individually, at most ``window`` in flight that
        carry chunk data (``window_occupancy`` and ``backpressure_stalls``
        measure this incremental count), and results are consumed strictly
        from the *oldest* outstanding future, so yields happen in submission
        order whatever the completion order -- the invariant every
        reduction above this relies on.  Waiting only on
        the head is also what makes recovery deterministic: when the head
        fails (broken pool, watchdog timeout, transient task error) nothing
        newer has been reduced yet, so rebuilding the pool and resubmitting
        the outstanding items -- in their original order, directives
        stripped -- replays the exact same reduction.  After
        :attr:`max_pool_rebuilds` *consecutive* pool deaths the engine
        degrades to inline serial execution of everything left instead of
        failing the run.
        """
        pending: "deque[List[Any]]" = deque()  # [item, future, carries data, retries]
        held = 0  # pending entries that carry chunk data
        exhausted = False
        consecutive_rebuilds = 0

        def submit(item: Any) -> Future:
            """Submit ``item``; a pool a crash already broke fails it in order, at the head."""
            try:
                return self._pool().submit(worker, item)
            except BrokenProcessPool as error:
                broken: Future = Future()
                broken.set_exception(error)
                return broken

        def rebuild_and_resubmit(reason: str) -> bool:
            """Heal a dead pool; False once the rebuild budget is spent."""
            nonlocal consecutive_rebuilds
            consecutive_rebuilds += 1
            if self._executor is not None:
                _terminate_executor(self._executor)
                self._executor = None
            if consecutive_rebuilds > self.max_pool_rebuilds:
                return False
            count("pool_rebuilds")
            count("tasks_retried", len(pending))
            logger.warning(
                "worker pool died (%s); rebuild %d/%d, resubmitting %d task(s)",
                reason,
                consecutive_rebuilds,
                self.max_pool_rebuilds,
                len(pending),
            )
            backoff = self.retry_backoff_s * 2 ** (consecutive_rebuilds - 1)
            time.sleep(backoff * (0.5 + random.random()))
            for entry in pending:
                entry[0] = _strip_inject(entry[0])
                entry[1] = submit(entry[0])
            return True

        while True:
            while not exhausted and held < window:
                try:
                    item = next(items)
                except StopIteration:
                    exhausted = True
                    break
                # Every task holds chunk data in the parent but a _Shard
                # whose chunks all ship as descriptors.
                data = not isinstance(item, _Shard) or any(
                    window.descriptor is None for window in item.windows
                )
                pending.append([item, submit(item), data, 0])
                if data:
                    held += 1
                    observe("window_occupancy", held)
            if not pending:
                return
            if not exhausted and held >= window:
                # The producer is ahead of the drain: the blocking wait
                # below is the backpressure that bounds streaming memory.
                count("backpressure_stalls")
            head = pending[0]
            future: Future = head[1]
            try:
                result = future.result(timeout=self.task_timeout)
            except FuturesTimeoutError:
                count("task_timeouts")
                if not rebuild_and_resubmit(
                    f"task exceeded task_timeout={self.task_timeout:g}s"
                ):
                    break
            except BrokenProcessPool:
                if not rebuild_and_resubmit("broken process pool"):
                    break
            except TransientError:
                # Only this task failed; retry it alone (bounded), still
                # waiting on it first so the yield order is unchanged.
                head[3] += 1
                if head[3] > self.task_retries:
                    raise
                count("tasks_retried")
                head[0] = _strip_inject(head[0])
                head[1] = submit(head[0])
            else:
                consecutive_rebuilds = 0
                held -= pending.popleft()[2]
                yield result

        # Rebuild budget exhausted: degrade to serial for everything left
        # rather than failing the run.  Outstanding futures were discarded
        # with the pool; their items re-run inline (directives stripped), in
        # order, so the reduction is still bit-identical.
        count("pool_degraded")
        logger.warning(
            "worker pool died %d consecutive times; degrading to serial "
            "execution for the remaining %d+ task(s)",
            consecutive_rebuilds,
            len(pending),
        )
        for entry in pending:
            yield self._run_serial_item(worker, _strip_inject(entry[0]))
        pending.clear()
        for item in items:
            yield self._run_serial_item(worker, item)


# ---------------------------------------------------------------------- #
# Shared persistent runners
# ---------------------------------------------------------------------- #
_SHARED_RUNNERS: Dict[Tuple[int, str], ParallelRunner] = {}


def shared_runner(
    n_jobs: int = 1,
    backend: str = "process",
    task_timeout: Optional[float] = None,
) -> ParallelRunner:
    """The process-wide persistent runner for ``n_jobs`` workers.

    Experiment drivers and sweep helpers route their fan-outs through this
    so that one executor is built per ``(worker count, backend)`` and reused
    across every ``run()`` call of the session, instead of paying pool
    start-up per sweep.  Pools are torn down at interpreter exit (or
    explicitly via :func:`shutdown_shared_runners`).

    ``task_timeout`` is re-bound on *every* acquisition (including to
    ``None``): the pool is shared session state, but the watchdog policy is
    per caller, and a value left attached by one driver must not silently
    apply to the next.
    """
    jobs = resolve_n_jobs(n_jobs)
    key = (jobs, backend)
    runner = _SHARED_RUNNERS.get(key)
    if runner is None:
        runner = ParallelRunner(jobs, persistent=True, backend=backend)
        _SHARED_RUNNERS[key] = runner
    runner.task_timeout = task_timeout
    return runner


def shutdown_shared_runners() -> None:
    """Close every pool created by :func:`shared_runner` (idempotent)."""
    for runner in _SHARED_RUNNERS.values():
        runner.close()
    _SHARED_RUNNERS.clear()


atexit.register(shutdown_shared_runners)
