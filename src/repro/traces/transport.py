"""Zero-copy trace handoff to worker processes.

The parallel engine's original IPC model pickled every chunk's ``(old, new)``
arrays into each worker task -- for a 200M-line trace that is the dominant
cost.  This module replaces the arrays with one small descriptor,
:class:`MmapTraceDescriptor`: the trace lives in a ``.wtrc`` file (see
:mod:`repro.traces.store`) that workers ``numpy.memmap`` themselves, so
chunk dispatch ships ~100 bytes instead of ~256 KiB per chunk.

:class:`TraceExporter` describes a corpus-backed trace by its own file and
writes any other trace once, with :func:`~repro.traces.store.save_trace`, to
a *spill* file in a private temporary directory it owns; only when that
write fails do the trace's chunks travel pickled.  :func:`attach_trace` is
the worker-side entry point; attachments are cached per process so a trace
is mapped once, not once per chunk.

Transport is pure plumbing: the chunk boundaries, seeding, and reduction
order of the engine are untouched, so results stay bit-identical to the
pickled path for every ``n_jobs``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.errors import TraceError
from ..obs import count
from ..workloads.trace import WriteTrace
from .store import load_trace, read_trace_header, save_trace

#: Worker-side attachments kept alive at most this many traces deep.
_ATTACH_CACHE_SIZE = 16


@dataclass(frozen=True)
class MmapTraceDescriptor:
    """A trace backed by a ``.wtrc`` file workers mmap themselves.

    The file is a corpus trace's own or an exporter's spill file.
    ``mtime_ns`` and ``size`` identify the file *version*: they participate
    in the descriptor's hash, so a worker's attachment cache cannot serve a
    stale mapping after the file is overwritten in place.
    """

    path: str
    n_lines: int
    data_offset: int
    has_addresses: bool
    name: str
    mtime_ns: int = 0
    size: int = 0


def _rewritten(descriptor: MmapTraceDescriptor) -> bool:
    """Whether the file behind ``descriptor`` is no longer the exported version."""
    try:
        stat = Path(descriptor.path).stat()
    except OSError:
        return True
    return (stat.st_mtime_ns, stat.st_size) != (descriptor.mtime_ns, descriptor.size)


def _remove_spill_dir(directory: str, owner_pid: int) -> None:
    """Delete a spill directory, but only from the process that created it.

    A forked worker inherits its parent's exporters together with their
    finalisers, and must never delete the files the parent still ships.
    """
    if os.getpid() == owner_pid:
        shutil.rmtree(directory, ignore_errors=True)


class TraceExporter:
    """Parent-side exporter: one mmap descriptor per trace, spilling as needed.

    :meth:`export` describes a corpus-backed trace by its own ``.wtrc`` file
    and spills any other trace once to ``<n>.wtrc`` in a private directory
    under :func:`tempfile.gettempdir` (which honours ``TMPDIR``), created on
    the first spill.  When the spill cannot be written (a full or read-only
    temporary directory) it returns ``None`` -- the pickle fallback.
    Exports are cached per trace object, so a sweep that wraps the same
    trace in hundreds of work units still writes one spill file.

    Call :meth:`release` (or use the instance as a context manager) once the
    results have been reduced; it deletes the spill directory and its files.
    Workers keep reading a file they mapped after it is unlinked, so
    release-after-submit is safe.  As a backstop the directory is also
    removed when the exporter is collected or the interpreter exits, by the
    process that created it only.
    """

    def __init__(self) -> None:
        # id(trace) -> (trace, descriptor or None, whether it is a spill).
        # The strong trace reference keeps the id from being recycled while
        # the cache lives; prune() deletes spill files, never corpus files.
        self._by_trace: Dict[int, Tuple[WriteTrace, Optional[MmapTraceDescriptor], bool]] = {}
        self._spill_dir: Optional[Path] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._n_spilled = 0

    def __enter__(self) -> "TraceExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _mmap_descriptor(
        trace: WriteTrace, path: Path, loaded_stat: Optional[tuple] = None
    ) -> Optional[MmapTraceDescriptor]:
        """Describe ``path`` as ``trace``, or ``None`` if it holds other data."""
        try:
            header = read_trace_header(path)
        except TraceError:
            return None
        if header.n_lines != len(trace):
            return None
        stat = path.stat()
        if loaded_stat is not None and loaded_stat != (stat.st_mtime_ns, stat.st_size):
            # The path was overwritten since this trace was loaded: its views
            # still read the old inode, so shipping the path would make
            # workers evaluate the new file's data.  The trace spills instead.
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

    def _spill(self, trace: WriteTrace) -> Optional[MmapTraceDescriptor]:
        """Write ``trace`` to a new spill file; ``None`` if that fails."""
        try:
            if self._spill_dir is None:
                self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
                self._finalizer = weakref.finalize(
                    self, _remove_spill_dir, str(self._spill_dir), os.getpid()
                )
            self._n_spilled += 1
            path = save_trace(trace, self._spill_dir / f"{self._n_spilled}.wtrc")
        except OSError:
            return None
        count("trace_spill_bytes", path.stat().st_size)
        return self._mmap_descriptor(trace, path)

    def export(self, trace: WriteTrace) -> Optional[MmapTraceDescriptor]:
        """Descriptor for ``trace``, or ``None`` to fall back to pickling."""
        key = id(trace)
        cached = self._by_trace.get(key)
        # A cached descriptor whose file was rewritten since is renewed (as a
        # spill: the trace still views the old data), so workers are only
        # ever shipped the version a path currently holds.
        if cached is not None and (cached[1] is None or not _rewritten(cached[1])):
            count("trace_export_reused")
            return cached[1]
        self._drop(key)
        descriptor, kind = None, "mmap"
        if trace.mmap_path is not None:
            descriptor = self._mmap_descriptor(trace, Path(trace.mmap_path), trace.mmap_stat)
        if descriptor is None:
            descriptor = self._spill(trace)
            kind = "pickle" if descriptor is None else "spill"
        count("trace_export", kind=kind)
        self._by_trace[key] = (trace, descriptor, kind == "spill")
        return descriptor

    def _drop(self, key: int) -> None:
        """Forget the export of one trace and delete its spill file, if any."""
        _, descriptor, spilled = self._by_trace.pop(key, (None, None, False))
        if spilled:
            Path(descriptor.path).unlink(missing_ok=True)

    def prune(self, active_trace_ids) -> None:
        """Drop exports (and their spill files) for traces not in ``active``.

        A long-lived exporter (persistent :class:`~repro.evaluation.parallel
        .ParallelRunner`) calls this after each fan-out with the ids of the
        traces that call used: their exports are kept for reuse and every
        other spill file is deleted, so ever-new traces cannot fill the disk.
        """
        active = set(active_trace_ids)
        for key in [k for k in self._by_trace if k not in active]:
            self._drop(key)

    def release(self) -> None:
        """Forget every export and delete the spill directory this exporter owns."""
        self._by_trace.clear()
        if self._finalizer is not None:
            self._finalizer()
        self._spill_dir = self._finalizer = None


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
#: descriptor -> attached WriteTrace, least recently used first; per process.
_ATTACHED: "OrderedDict[MmapTraceDescriptor, WriteTrace]" = OrderedDict()


def _attach_mmap(descriptor: MmapTraceDescriptor) -> WriteTrace:
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
        raise TraceError(f"{descriptor.path} changed since it was exported; re-export the trace")
    return load_trace(descriptor.path, mmap=True)


def attach_trace(descriptor: MmapTraceDescriptor) -> WriteTrace:
    """Materialise a descriptor as a (view-backed) :class:`WriteTrace`.

    Attachments are cached per process and evicted LRU, so worker processes
    map each trace once regardless of how many of its chunks they evaluate.
    """
    cached = _ATTACHED.get(descriptor)
    if cached is not None:
        _ATTACHED.move_to_end(descriptor)
        count("trace_attach", result="hit")
        return cached
    count("trace_attach", result="miss")
    if not isinstance(descriptor, MmapTraceDescriptor):
        raise TraceError(f"unknown trace descriptor: {descriptor!r}")
    trace = _attach_mmap(descriptor)
    # The exporter only ships the version a path currently holds, so a
    # mapping of another version of this path, or of a file deleted (a
    # pruned spill) or rewritten since its export, is never asked for again:
    # drop it rather than pin its pages and disk blocks until LRU eviction.
    # Only misses pay the stats.
    for other in [d for d in _ATTACHED if d.path == descriptor.path or _rewritten(d)]:
        del _ATTACHED[other]
    _ATTACHED[descriptor] = trace
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        _ATTACHED.popitem(last=False)
    return trace
