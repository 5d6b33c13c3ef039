"""Trace corpus, format ingest, and zero-copy transport.

This package is the trace *infrastructure* layer of the reproduction:

* :mod:`.store` -- a versioned on-disk trace format (``.wtrc``: JSON header
  plus raw little-endian ``uint64`` arrays) that loads through
  :class:`numpy.memmap`, and :class:`~.store.TraceCorpus`, a directory of
  traces with an index and content-addressed caching of generated traces;
* :mod:`.ingest` -- parsers for external address-trace formats (ramulator2's
  ``R/W 0xADDR 0xSIZE`` ASCII traces, tracehm's tab-separated traces) plus the
  content synthesiser that turns an address-only trace into a full
  (old, new) differential write trace;
* :mod:`.transport` -- zero-copy handoff of traces to the parallel evaluation
  engine as memory-mapped ``.wtrc`` files: a corpus trace's own, else a spill
  file written once, with pickling only when the spill cannot be written.
"""

from .ingest import (
    SYNTHESIS_CHUNK_LINES,
    SYNTHESIS_VERSION,
    TRACE_FORMATS,
    IngestChunkSource,
    StreamingSynthesizer,
    detect_trace_format,
    ingest_trace_file,
    iter_trace_address_chunks,
    parse_ramulator_inst_trace,
    parse_ramulator_trace,
    parse_tracehm_trace,
    stream_ingest_to_npz,
    stream_ingest_to_wtrc,
    synthesize_write_trace,
)
from .store import (
    CORPUS_INDEX_NAME,
    TRACE_SUFFIX,
    NpzTraceWriter,
    TraceCorpus,
    TraceWriter,
    is_wtrc_file,
    load_trace,
    read_npz_trace_lines,
    read_trace_header,
    save_trace,
    trace_cache_key,
)
from .transport import MmapTraceDescriptor, TraceExporter, attach_trace

__all__ = [
    "CORPUS_INDEX_NAME",
    "IngestChunkSource",
    "MmapTraceDescriptor",
    "StreamingSynthesizer",
    "SYNTHESIS_CHUNK_LINES",
    "SYNTHESIS_VERSION",
    "TRACE_FORMATS",
    "TRACE_SUFFIX",
    "TraceCorpus",
    "TraceExporter",
    "NpzTraceWriter",
    "TraceWriter",
    "attach_trace",
    "detect_trace_format",
    "ingest_trace_file",
    "is_wtrc_file",
    "iter_trace_address_chunks",
    "load_trace",
    "parse_ramulator_inst_trace",
    "parse_ramulator_trace",
    "parse_tracehm_trace",
    "read_npz_trace_lines",
    "read_trace_header",
    "save_trace",
    "stream_ingest_to_npz",
    "stream_ingest_to_wtrc",
    "synthesize_write_trace",
    "trace_cache_key",
]
