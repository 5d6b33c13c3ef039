"""Zero-copy trace handoff to worker processes.

The parallel engine's original IPC model pickled every chunk's ``(old, new)``
arrays into each worker task -- for a 200M-line trace that is the dominant
cost.  This module replaces the arrays with small *descriptors*:

* :class:`ShmTraceDescriptor` -- the trace lives in a
  ``multiprocessing.shared_memory`` segment the parent filled once; workers
  attach by name and slice, so chunk dispatch ships ~100 bytes instead of
  ~256 KiB per chunk;
* :class:`MmapTraceDescriptor` -- the trace is corpus-backed (a ``.wtrc``
  file, see :mod:`repro.traces.store`); workers ``numpy.memmap`` the file
  themselves and the OS page cache is the only copy in the system.

:class:`TraceExporter` picks the cheapest transport for each trace
(mmap for corpus-backed traces, shared memory for in-memory ones, pickling
as the transparent fallback) and owns the parent-side lifetime of the shared
segments.  :func:`attach_trace` is the worker-side entry point; attachments
are cached per process so a trace is mapped once, not once per chunk.

Transport is pure plumbing: the chunk boundaries, seeding, and reduction
order of the engine are untouched, so results stay bit-identical to the
pickled path for every ``n_jobs``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..core.errors import TraceError
from ..core.line import LineBatch
from ..core.symbols import WORDS_PER_LINE
from ..obs import count
from ..workloads.trace import WriteTrace

try:  # pragma: no cover - exercised implicitly on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

#: Worker-side attachments kept alive at most this many traces deep.
_ATTACH_CACHE_SIZE = 16


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can be used on this platform."""
    return _shm is not None


@dataclass(frozen=True)
class ShmTraceDescriptor:
    """A trace parked in a named shared-memory segment.

    Layout inside the segment: old words ``(n, 8)``, new words ``(n, 8)``,
    then the optional ``(n,)`` address array, all contiguous ``uint64``.
    """

    shm_name: str
    n_lines: int
    has_addresses: bool
    name: str


@dataclass(frozen=True)
class MmapTraceDescriptor:
    """A trace backed by a ``.wtrc`` corpus file workers mmap themselves.

    ``mtime_ns`` and ``size`` identify the file *version*: they participate
    in the descriptor's hash, so a worker's attachment cache cannot serve a
    stale mapping after the corpus file is overwritten in place.
    """

    path: str
    n_lines: int
    data_offset: int
    has_addresses: bool
    name: str
    mtime_ns: int = 0
    size: int = 0


TraceDescriptor = Union[ShmTraceDescriptor, MmapTraceDescriptor]


def _rewritten(descriptor: MmapTraceDescriptor) -> bool:
    """Whether the file behind ``descriptor`` is no longer the exported version."""
    try:
        stat = Path(descriptor.path).stat()
    except OSError:
        return True
    return (stat.st_mtime_ns, stat.st_size) != (descriptor.mtime_ns, descriptor.size)


def _segment_bytes(n_lines: int, has_addresses: bool) -> int:
    per_line = 2 * WORDS_PER_LINE * 8 + (8 if has_addresses else 0)
    return max(1, n_lines * per_line)


def _segment_views(
    buffer, n_lines: int, has_addresses: bool
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    words = n_lines * WORDS_PER_LINE
    old = np.frombuffer(buffer, dtype=np.uint64, count=words, offset=0)
    new = np.frombuffer(buffer, dtype=np.uint64, count=words, offset=words * 8)
    addresses = None
    if has_addresses:
        addresses = np.frombuffer(
            buffer, dtype=np.uint64, count=n_lines, offset=2 * words * 8
        )
    return (
        old.reshape(n_lines, WORDS_PER_LINE),
        new.reshape(n_lines, WORDS_PER_LINE),
        addresses,
    )


class TraceExporter:
    """Parent-side transport chooser and shared-segment owner.

    :meth:`export` picks the cheapest transport for each trace: an mmap
    descriptor when the trace is corpus-backed, else a shared-memory
    segment, else ``None`` -- the pickle fallback -- when the host has no
    shared memory or the segment cannot be created.  Exports are cached per
    trace object, so a sweep that wraps the same trace in hundreds of work
    units still creates one segment.

    Call :meth:`release` (or use the instance as a context manager) once the
    results have been reduced; it closes and unlinks every segment this
    exporter created.  POSIX keeps unlinked segments alive while workers hold
    them, so release-after-submit is safe.
    """

    def __init__(self) -> None:
        # id(trace) -> (trace, descriptor, shm segment or None).  The strong
        # trace reference keeps the id from being recycled by a new object
        # while the cache lives; the segment travels with its entry so
        # prune() can release per trace.
        self._by_trace: Dict[int, Tuple[WriteTrace, Optional[TraceDescriptor], object]] = {}

    def __enter__(self) -> "TraceExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------ #
    def _mmap_descriptor(self, trace: WriteTrace) -> Optional[MmapTraceDescriptor]:
        path = trace.mmap_path
        if path is None:
            return None
        path = Path(path)
        try:
            from .store import read_trace_header

            header = read_trace_header(path)
        except TraceError:
            return None
        if header.n_lines != len(trace):
            return None
        stat = path.stat()
        if trace.mmap_stat is not None and trace.mmap_stat != (
            stat.st_mtime_ns,
            stat.st_size,
        ):
            # The path was overwritten since this trace was loaded: its views
            # still read the old inode, so shipping the path would make
            # workers evaluate the new file's data.  Fall back to shm/pickle,
            # which carry the trace's actual arrays.
            return None
        return MmapTraceDescriptor(
            path=str(path),
            n_lines=header.n_lines,
            data_offset=header.data_offset,
            has_addresses=header.has_addresses,
            name=trace.name,
            mtime_ns=stat.st_mtime_ns,
            size=stat.st_size,
        )

    def _shm_export(
        self, trace: WriteTrace
    ) -> Tuple[Optional[ShmTraceDescriptor], object]:
        if _shm is None or len(trace) == 0:
            return None, None
        has_addresses = trace.addresses is not None
        try:
            segment = _shm.SharedMemory(
                create=True, size=_segment_bytes(len(trace), has_addresses)
            )
        except OSError:
            return None, None
        old, new, addresses = _segment_views(segment.buf, len(trace), has_addresses)
        old[:] = trace.old.words
        new[:] = trace.new.words
        if addresses is not None:
            addresses[:] = trace.addresses
        descriptor = ShmTraceDescriptor(
            shm_name=segment.name,
            n_lines=len(trace),
            has_addresses=has_addresses,
            name=trace.name,
        )
        return descriptor, segment

    def export(self, trace: WriteTrace) -> Optional[TraceDescriptor]:
        """Descriptor for ``trace``, or ``None`` to fall back to pickling."""
        key = id(trace)
        cached = self._by_trace.get(key)
        # A cached mmap descriptor whose file was rewritten since is re-exported
        # (as shared memory: the trace still views the old data), so workers
        # are only ever shipped the version a corpus path currently holds.
        if cached is not None and not (
            isinstance(cached[1], MmapTraceDescriptor) and _rewritten(cached[1])
        ):
            count("trace_export_reused")
            return cached[1]
        descriptor: Optional[TraceDescriptor] = self._mmap_descriptor(trace)
        segment = None
        if descriptor is None:
            descriptor, segment = self._shm_export(trace)
        if isinstance(descriptor, ShmTraceDescriptor):
            count("trace_export", kind="shm")
            count(
                "shm_export_bytes",
                _segment_bytes(descriptor.n_lines, descriptor.has_addresses),
            )
        elif isinstance(descriptor, MmapTraceDescriptor):
            count("trace_export", kind="mmap")
        else:
            count("trace_export", kind="pickle")
        self._by_trace[key] = (trace, descriptor, segment)
        return descriptor

    @staticmethod
    def _release_segment(segment) -> None:
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except (BufferError, OSError):  # pragma: no cover
            pass

    def prune(self, active_trace_ids) -> None:
        """Drop exports (and their segments) for traces not in ``active``.

        A long-lived exporter (persistent :class:`~repro.evaluation.parallel
        .ParallelRunner`) calls this after each fan-out with the ids of the
        traces that call used: exports for still-live traces are kept for
        reuse, everything else is unlinked, so looping over ever-new traces
        cannot grow /dev/shm without bound.
        """
        active = set(active_trace_ids)
        for key in [k for k in self._by_trace if k not in active]:
            _, _, segment = self._by_trace.pop(key)
            self._release_segment(segment)

    def release(self) -> None:
        """Close and unlink every shared-memory segment this exporter owns."""
        for _, _, segment in self._by_trace.values():
            self._release_segment(segment)
        self._by_trace.clear()


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
#: descriptor -> (keep-alive handle, attached WriteTrace); per process.
_ATTACHED: "OrderedDict[TraceDescriptor, Tuple[object, WriteTrace]]" = OrderedDict()


def _attach_shm(descriptor: ShmTraceDescriptor) -> Tuple[object, WriteTrace]:
    if _shm is None:  # pragma: no cover - descriptor implies availability
        raise TraceError("shared memory is not available in this process")
    # Attaching registers the segment with the resource tracker a second
    # time; executor workers share the parent's tracker process, its cache is
    # a set, and the owning TraceExporter's unlink clears the single entry --
    # so no unregister gymnastics are needed here.
    segment = _shm.SharedMemory(name=descriptor.shm_name)
    old, new, addresses = _segment_views(
        segment.buf, descriptor.n_lines, descriptor.has_addresses
    )
    trace = WriteTrace(
        old=LineBatch(old),
        new=LineBatch(new),
        addresses=addresses,
        name=descriptor.name,
    )
    return segment, trace


def _attach_mmap(descriptor: MmapTraceDescriptor) -> Tuple[object, WriteTrace]:
    from .store import load_trace, read_trace_header

    header = read_trace_header(descriptor.path)
    if (header.n_lines, header.data_offset) != (descriptor.n_lines, descriptor.data_offset):
        raise TraceError(
            f"{descriptor.path} changed layout since it was exported "
            f"({header.n_lines} lines at offset {header.data_offset}, "
            f"expected {descriptor.n_lines} at {descriptor.data_offset})"
        )
    if descriptor.size and _rewritten(descriptor):
        # Same layout but a different file version (overwritten in place
        # between export and attach) would silently evaluate wrong data.
        raise TraceError(
            f"{descriptor.path} changed since it was exported; re-export the trace"
        )
    return None, load_trace(descriptor.path, mmap=True)


def attach_trace(descriptor: TraceDescriptor) -> WriteTrace:
    """Materialise a descriptor as a (view-backed) :class:`WriteTrace`.

    Attachments are cached per process and evicted LRU, so worker processes
    map each trace once regardless of how many of its chunks they evaluate.
    """
    cached = _ATTACHED.get(descriptor)
    if cached is not None:
        _ATTACHED.move_to_end(descriptor)
        count("trace_attach", result="hit")
        return cached[1]
    count("trace_attach", result="miss")
    if isinstance(descriptor, ShmTraceDescriptor):
        handle, trace = _attach_shm(descriptor)
    elif isinstance(descriptor, MmapTraceDescriptor):
        handle, trace = _attach_mmap(descriptor)
        # The exporter only ships the version a path currently holds, so any
        # other mapping of this path is never asked for again: drop it rather
        # than pin the pages of every version of a file rewritten in place.
        for other in [d for d in _ATTACHED if getattr(d, "path", None) == descriptor.path]:
            del _ATTACHED[other]
    else:
        raise TraceError(f"unknown trace descriptor: {descriptor!r}")
    _ATTACHED[descriptor] = (handle, trace)
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        # Take only the handle: the evicted trace's arrays view the segment,
        # and close() cannot unmap it while they are alive.
        old_handle = _ATTACHED.popitem(last=False)[1][0]
        if old_handle is not None:
            try:
                old_handle.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
    return trace
