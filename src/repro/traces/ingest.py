"""Ingest external address traces and synthesise write contents -- streaming.

Three ASCII trace dialects common in the memory-systems tooling around the
paper are supported:

``ramulator2``
    One access per line, ``R|W 0xADDR [0xSIZE]`` (the format ramulator2's
    memory-trace frontend and its trace generators exchange).  Reads are
    dropped, addresses are aligned to 64-byte memory lines, and accesses
    wider than one line are expanded into one write per touched line.

``ramulator2-inst``
    Ramulator2's *instruction* trace frontend: ``<bubbles> <ld> [<st>]``
    lines, where ``bubbles`` counts non-memory instructions before the
    access, ``ld`` is a load address and the optional third field is a
    store (write-back) address.  Only lines carrying the store field
    contribute a write.

``tracehm``
    Tab-separated ``<seq> 0xADDR <is_write>`` lines (tracehm's ``tracegen``
    output) where the third hex field flags writes.

All three formats carry *addresses only* -- no data.  The synthesis layer
turns such an address stream into a full (old, new) differential write trace:
line contents are drawn from a :class:`~repro.workloads.generator
.LineGenerator`, and repeated writes to an address mutate the previously
written value, preserving the reuse structure of the original workload.

Everything in this module streams.  The parsers are generators that yield
bounded ``uint64`` address chunks instead of materialising the whole stream
in a Python list.  The ramulator2 parser reads the file in 64 KiB byte
blocks and parses each block with numpy; a block holding any line outside
the canonical grammar (see :func:`_parse_block`) goes through the per-line
parser instead, which stays the one source of parse errors and their line
numbers.  :class:`StreamingSynthesizer` consumes the address chunks one
at a time: chunk ``k``'s random draws come from a
:class:`numpy.random.SeedSequence` seeded with the running SHA-256 digest of
the address stream *up to and including* chunk ``k`` (plus the optional user
seed and the chunk index), so the synthesised trace is still a pure function
of the input file -- re-ingesting the same file bit-identically reproduces
the same write trace -- while no more than one synthesis quantum
(:data:`SYNTHESIS_CHUNK_LINES` requests) of content ever exists at once.
The only state carried across chunks is the per-address last-written value
(plus its content type), which is exactly the information any implementation
of write-reuse chains needs: memory is bounded by the trace's *unique line
working set*, not its length.

The in-memory entry points (:func:`synthesize_write_trace`,
:func:`ingest_trace_file`) run the very same chunked algorithm and merely
concatenate its output, so the streamed and in-memory paths are bit-identical
by construction -- the property test suite asserts it end to end, including
through the parallel evaluation engine.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.errors import TraceError
from ..core.line import LineBatch
from ..core.symbols import WORDS_PER_LINE
from ..obs import span
from ..workloads.generator import LineGenerator
from ..workloads.profiles import get_profile
from ..workloads.trace import WriteTrace, rechunk_traces

#: Memory-line size every ingested access is coalesced to.
LINE_BYTES = 64
#: Largest plausible single access (1 MiB).  A size field beyond this is a
#: corrupt/hostile trace line, not a burst write -- erroring beats expanding
#: it into billions of per-line addresses.
MAX_ACCESS_BYTES = 1 << 20
#: Trace dialects :func:`ingest_trace_file` understands.
TRACE_FORMATS = ("ramulator2", "ramulator2-inst", "tracehm")
#: Default content profile used to synthesise line data for address traces.
DEFAULT_SYNTHESIS_PROFILE = "gcc"
#: Version of the content-synthesis algorithm.  Version 2 is the chunked
#: scheme described in the module docstring (one RNG stream per synthesis
#: quantum, per-address state carried across chunks); it replaced the v1
#: whole-stream algorithm, whose RNG draw order required the full trace in
#: memory.  Recorded in the metadata of every ingested trace.
SYNTHESIS_VERSION = 2
#: Requests per synthesis quantum.  This is an algorithm parameter, not a
#: tuning knob: the synthesised contents depend on it (each quantum draws
#: from its own RNG stream), so the streamed and in-memory paths share this
#: one constant to stay bit-identical.
SYNTHESIS_CHUNK_LINES = 1 << 16
#: Bytes the ramulator2 parser reads per block (each block is then cut at
#: its last newline); bounds the block parser's scratch, changes no output.
_BLOCK_BYTES = 1 << 16
#: Addresses the per-line parsers buffer per yield; changes no output.
_FLUSH_LINES = 1 << 16


def _open(path: Path, mode: str, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:  # directory, permission, I/O errors
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc


def _data_lines(numbered: Iterable[Tuple[int, str]]) -> Iterator[Tuple[int, str]]:
    for lineno, raw in numbered:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _clean_lines(path: Path) -> Iterator[Tuple[int, str]]:
    with _open(path, "r", encoding="utf-8", errors="replace") as fh:
        yield from _data_lines(enumerate(fh, start=1))


def _flush(buffer: List[int]) -> np.ndarray:
    chunk = np.asarray(buffer, dtype=np.uint64)
    buffer.clear()
    return chunk


def _require_file(path: Union[str, Path]) -> Path:
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    return path


# ---------------------------------------------------------------------- #
# Parser generators: ASCII trace -> bounded chunks of write-line addresses
# ---------------------------------------------------------------------- #
def iter_ramulator_addresses(path: Union[str, Path]) -> Iterator[np.ndarray]:
    """Stream a ramulator2-style ASCII trace as 64B-aligned write addresses.

    Yields a ``uint64`` array for each parse block that holds writes, in
    trace order; reads are filtered out and accesses spanning several lines
    contribute one address per touched line.
    """
    path = _require_file(path)
    lineno = 1
    for block in _blocks(path):
        addresses = _parse_block(block)
        if addresses is None:
            with io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", errors="replace") as fh:
                lines = list(fh)
            addresses = np.asarray(
                _ramulator_line_addresses(
                    path, _data_lines(enumerate(lines, start=lineno))
                ),
                dtype=np.uint64,
            )
            lineno += len(lines)
        else:
            lineno += block.count(b"\n")
        if len(addresses):
            yield addresses


def _blocks(path: Path) -> Iterator[bytes]:
    """The file's bytes in blocks of about :data:`_BLOCK_BYTES`.

    Every block but the last ends at a newline, so no line straddles two
    blocks; a line longer than a block grows its block until it ends.
    """
    with _open(path, "rb") as fh:
        carry = b""
        while True:
            data = fh.read(_BLOCK_BYTES)
            if not data:
                break
            data = carry + data
            cut = data.rfind(b"\n") + 1
            carry = data[cut:]
            if cut:
                yield data[:cut]
        if carry:
            yield carry


#: Classes of the bytes a block may hold besides hex digits (whose class is
#: their value), and of the bytes that decline it: non-ASCII and control
#: bytes other than tab, CR and LF.
_NOT_HEX, _BAD = 16, 255


def _byte_classes() -> bytes:
    """The ``bytes.translate`` table from a byte to its class."""
    table = bytearray([_BAD] * 256)
    for byte in b" \t\r\n" + bytes(range(33, 127)):
        table[byte] = _NOT_HEX
    for value, digit in enumerate(b"0123456789abcdef"):
        table[digit] = value
    for value, digit in enumerate(b"ABCDEF", start=10):
        table[digit] = value
    return bytes(table)


_CLASSES = _byte_classes()
#: Left padding of a block, so the 16-byte window of a token that starts
#: the block stays inside the buffer.
_PAD = b" " * 16
#: Per digit count d: the two little-endian words masking the last d of 16 bytes.
_DIGIT_BYTES = np.array(
    [[(int.from_bytes(bytes(16 - d) + b"\xff" * d, "little") >> shift) & (2**64 - 1)
      for shift in (0, 64)] for d in range(17)],
    dtype=np.uint64,
)
_U64_MAX = np.uint64(2**64 - 1)


def _parse_block(block: bytes) -> Optional[np.ndarray]:
    """The write-line addresses of one block, or ``None`` to parse it per line.

    Covers the canonical grammar: lines of two or three fields,
    ``R|W|LD|ST`` in any case, then an address and an optional size of one
    to sixteen hex digits with an optional ``0x``/``0X`` prefix; blank lines,
    ``#`` comment lines, tabs and CRLF endings.  Anything else -- non-ASCII
    or control bytes, a lone CR, one or more than three fields, a sign or
    ``_`` in a number, more than sixteen digits, a size above
    :data:`MAX_ACCESS_BYTES` or an access past the 64-bit space -- declines
    the whole block, and the per-line parser gives the result or the error.
    """
    padded = _PAD + block + (b"" if block.endswith(b"\n") else b"\n")
    classes = padded.translate(_CLASSES)
    if bytes([_BAD]) in classes:
        return None
    if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
        return None
    buf = np.frombuffer(padded, dtype=np.uint8)

    # Tokens are runs of bytes above the space: the padding and the final
    # newline make every run rise and fall inside the buffer.
    edges = np.flatnonzero(np.diff(buf > 32)) + 1
    starts, ends = edges[0::2], edges[1::2]
    # Tokens before each newline give every line's first token and count.
    before = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))
    first = np.concatenate(([0], before[:-1]))
    fields = before - first
    first, fields = first[fields > 0], fields[fields > 0]
    data = buf[starts[first]] != ord("#")
    first, fields = first[data], fields[data]
    if ((fields < 2) | (fields > 3)).any():
        return None

    op_start = starts[first]
    op_len = ends[first] - op_start
    c0 = buf[op_start] | 0x20  # ASCII letters fold to lower case
    c1 = buf[op_start + 1] | 0x20
    one, two = op_len == 1, op_len == 2
    write = (one & (c0 == ord("w"))) | (two & (c0 == ord("s")) & (c1 == ord("t")))
    read = (one & (c0 == ord("r"))) | (two & (c0 == ord("l")) & (c1 == ord("d")))
    if not (write | read).all():
        return None

    sized = fields == 3
    fields_at = np.concatenate((first + 1, first[sized] + 2))
    values = _hex_values(buf, classes, starts[fields_at], ends[fields_at])
    if values is None:
        return None
    addr = values[: len(first)]
    size = np.full(len(first), LINE_BYTES, dtype=np.uint64)
    size[sized] = values[len(first):]
    size[size == 0] = LINE_BYTES
    if (size > MAX_ACCESS_BYTES).any() or (addr > _U64_MAX - (size - 1)).any():
        return None

    addr, size = addr[write], size[write]
    first_line = addr & ~np.uint64(LINE_BYTES - 1)
    last_line = (addr + (size - 1)) & ~np.uint64(LINE_BYTES - 1)
    count = ((last_line - first_line) // np.uint64(LINE_BYTES)).astype(np.int64) + 1
    step = np.arange(int(count.sum()), dtype=np.uint64) - np.repeat(
        (np.cumsum(count) - count).astype(np.uint64), count
    )
    return np.repeat(first_line, count) + step * np.uint64(LINE_BYTES)


def _hex_values(
    buf: np.ndarray, classes: bytes, starts: np.ndarray, ends: np.ndarray
) -> Optional[np.ndarray]:
    """``uint64`` values of the hex tokens ``buf[starts:ends]``, or ``None``.

    ``classes`` holds the byte classes of ``buf``.  Each token is read as the
    two little-endian words of the 16 classes that end at its last byte:
    classes left of the digits are masked off, a high nibble left in a
    digit's class marks a non-hex byte, and three shift-and-mask rounds
    pack each word's eight digit values into 32 bits.
    """
    prefixed = (buf[starts] == ord("0")) & ((buf[starts + 1] | 0x20) == ord("x"))
    digits = ends - starts - 2 * prefixed
    if ((digits < 1) | (digits > 16)).any():
        return None
    unaligned = np.ndarray((len(classes) - 7,), dtype="<u8", buffer=classes, strides=(1,))
    words = np.stack((unaligned[ends - 16], unaligned[ends - 8]), axis=1)
    words &= _DIGIT_BYTES[digits]
    if (words & np.uint64(0xF0F0_F0F0_F0F0_F0F0)).any():
        return None
    words = ((words & np.uint64(0x00FF_00FF_00FF_00FF)) << np.uint64(4)) | (
        (words >> np.uint64(8)) & np.uint64(0x00FF_00FF_00FF_00FF)
    )
    words = ((words & np.uint64(0x0000_FFFF_0000_FFFF)) << np.uint64(8)) | (
        (words >> np.uint64(16)) & np.uint64(0x0000_FFFF_0000_FFFF)
    )
    words = ((words & np.uint64(0xFFFF_FFFF)) << np.uint64(16)) | (words >> np.uint64(32))
    return (words[:, 0] << np.uint64(32)) | words[:, 1]


def _ramulator_line_addresses(
    path: Path, lines: Iterable[Tuple[int, str]]
) -> List[int]:
    """Write-line addresses of numbered ramulator2 lines, parsed one by one.

    The reference semantics of the format, and the only place that raises
    its :class:`TraceError` s.
    """
    buffer: List[int] = []
    for lineno, line in lines:
        parts = line.split()
        op = parts[0].upper()
        if op not in ("R", "W", "LD", "ST"):
            raise TraceError(
                f"{path}:{lineno}: expected 'R'/'W' operation, got {parts[0]!r}"
            )
        if op in ("R", "LD"):
            continue
        if len(parts) < 2:
            raise TraceError(f"{path}:{lineno}: write without an address")
        try:
            addr = int(parts[1], 16)
            size = int(parts[2], 16) if len(parts) > 2 else LINE_BYTES
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: bad hex field: {exc}") from exc
        if size <= 0:
            size = LINE_BYTES
        if size > MAX_ACCESS_BYTES:
            raise TraceError(
                f"{path}:{lineno}: implausible access size 0x{size:X} "
                f"(max 0x{MAX_ACCESS_BYTES:X})"
            )
        if addr < 0 or addr + size > 2**64:
            raise TraceError(
                f"{path}:{lineno}: address 0x{addr:X} outside the 64-bit space"
            )
        first = addr - (addr % LINE_BYTES)
        last = (addr + size - 1) - ((addr + size - 1) % LINE_BYTES)
        buffer.extend(range(first, last + LINE_BYTES, LINE_BYTES))
    return buffer


def _parse_int_field(path: Path, lineno: int, field: str) -> int:
    """Decimal or ``0x``-prefixed integer field of an instruction trace."""
    try:
        return int(field, 16) if field.lower().startswith("0x") else int(field, 10)
    except ValueError as exc:
        raise TraceError(f"{path}:{lineno}: bad integer field: {exc}") from exc


def iter_ramulator_inst_addresses(path: Union[str, Path]) -> Iterator[np.ndarray]:
    """Stream a ramulator2 instruction trace (``<bubbles> <ld> [<st>]``).

    Two-field lines are load-only and contribute no write; the optional
    third field is a store (write-back) address, yielded 64B-aligned.
    Fields are decimal, or hex with a ``0x`` prefix.
    """
    path = _require_file(path)
    buffer: List[int] = []
    for lineno, line in _clean_lines(path):
        parts = line.split()
        if len(parts) < 2 or len(parts) > 3:
            raise TraceError(
                f"{path}:{lineno}: expected '<bubbles> <ld> [<st>]', got {line!r}"
            )
        bubbles = _parse_int_field(path, lineno, parts[0])
        if bubbles < 0:
            raise TraceError(f"{path}:{lineno}: negative bubble count {bubbles}")
        addresses = [_parse_int_field(path, lineno, field) for field in parts[1:]]
        for value in addresses:
            if value < 0 or value >= 2**64:
                raise TraceError(
                    f"{path}:{lineno}: address 0x{value:X} outside the 64-bit space"
                )
        if len(addresses) == 2:
            store = addresses[1]
            buffer.append(store - (store % LINE_BYTES))
            if len(buffer) >= _FLUSH_LINES:
                yield _flush(buffer)
    if buffer:
        yield _flush(buffer)


def iter_tracehm_addresses(path: Union[str, Path]) -> Iterator[np.ndarray]:
    """Stream a tracehm-style ``<seq> 0xADDR <is_write>`` trace.

    Yields the 64B-aligned ``uint64`` addresses of the write accesses
    (``is_write`` truthy), in trace order.
    """
    path = _require_file(path)
    buffer: List[int] = []
    for lineno, line in _clean_lines(path):
        parts = line.split()
        if len(parts) < 3:
            raise TraceError(
                f"{path}:{lineno}: expected '<seq> 0xADDR <is_write>', got {line!r}"
            )
        try:
            addr = int(parts[1], 16)
            is_write = int(parts[2], 16)
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: bad field: {exc}") from exc
        if addr < 0 or addr >= 2**64:
            raise TraceError(
                f"{path}:{lineno}: address 0x{addr:X} outside the 64-bit space"
            )
        if is_write:
            buffer.append(addr - (addr % LINE_BYTES))
            if len(buffer) >= _FLUSH_LINES:
                yield _flush(buffer)
    if buffer:
        yield _flush(buffer)


#: Dialect name -> streaming parser.
_FORMAT_PARSERS: Dict[str, Callable[..., Iterator[np.ndarray]]] = {
    "ramulator2": iter_ramulator_addresses,
    "ramulator2-inst": iter_ramulator_inst_addresses,
    "tracehm": iter_tracehm_addresses,
}


def _concat_address_chunks(chunks: Iterable[np.ndarray]) -> np.ndarray:
    parts = list(chunks)
    if not parts:
        return np.asarray([], dtype=np.uint64)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def parse_ramulator_trace(path: Union[str, Path]) -> np.ndarray:
    """Parse a ramulator2-style ASCII trace into 64B-aligned write addresses.

    Materialised convenience wrapper over :func:`iter_ramulator_addresses`.
    """
    return _concat_address_chunks(iter_ramulator_addresses(path))


def parse_ramulator_inst_trace(path: Union[str, Path]) -> np.ndarray:
    """Parse a ramulator2 instruction trace into 64B-aligned store addresses.

    Materialised convenience wrapper over
    :func:`iter_ramulator_inst_addresses`.
    """
    return _concat_address_chunks(iter_ramulator_inst_addresses(path))


def parse_tracehm_trace(path: Union[str, Path]) -> np.ndarray:
    """Parse a tracehm-style ``<seq> 0xADDR <is_write>`` trace.

    Materialised convenience wrapper over :func:`iter_tracehm_addresses`.
    """
    return _concat_address_chunks(iter_tracehm_addresses(path))


def _looks_int(field: str) -> bool:
    """Whether a field parses as the dialects' decimal-or-0x-hex integers."""
    text = field.lower()
    if text.startswith("0x"):
        text = text[2:]
        return bool(text) and all(c in "0123456789abcdef" for c in text)
    return field.isdigit()


def detect_trace_format(path: Union[str, Path]) -> str:
    """Sniff which supported dialect ``path`` uses from its first data line.

    Three-field numeric lines are inherently ambiguous between tracehm
    (``<seq> ADDR <is_write>``) and ramulator2-inst (``<bubbles> <ld> <st>``).
    Tie-breakers, in order: a third field of ``0``/``1`` (or ``0x0``/``0x1``)
    reads as a write flag (tracehm); a ``0x``-prefixed first or third field
    reads as ramulator2-inst (tracehm's sequence number and write flag are
    plain decimals in practice); a ``0x`` *address* with a bare non-flag
    third field keeps the historical tracehm interpretation; all-decimal
    lines read as ramulator2-inst.  Two integer fields are always
    ramulator2-inst (a load-only line).  Pass an explicit ``--format`` /
    ``fmt`` for files the heuristic cannot see through.
    """
    path = _require_file(path)
    for _, line in _clean_lines(path):
        parts = line.split()
        if parts[0].upper() in ("R", "W", "LD", "ST"):
            return "ramulator2"
        if _looks_int(parts[0]):
            if len(parts) == 2 and _looks_int(parts[1]):
                return "ramulator2-inst"
            if len(parts) == 3 and all(_looks_int(p) for p in parts):
                lowered = [p.lower() for p in parts]
                if lowered[2] in ("0", "1", "0x0", "0x1"):
                    return "tracehm"
                if lowered[0].startswith("0x") or lowered[2].startswith("0x"):
                    return "ramulator2-inst"
                if lowered[1].startswith("0x"):
                    return "tracehm"
                return "ramulator2-inst"
            if len(parts) >= 3 and parts[0].isdigit():
                return "tracehm"
        break
    raise TraceError(
        f"cannot detect the trace format of {path}; "
        f"supported formats: {', '.join(TRACE_FORMATS)}"
    )


def iter_trace_address_chunks(
    path: Union[str, Path],
    fmt: str = "auto",
    chunk_lines: int = SYNTHESIS_CHUNK_LINES,
) -> Iterator[np.ndarray]:
    """Stream a trace file as exactly ``chunk_lines``-sized address chunks.

    ``fmt`` is one of :data:`TRACE_FORMATS` or ``"auto"`` (sniff from the
    first data line).  The exact chunk boundaries matter: the synthesis layer
    seeds one RNG stream per chunk, so every consumer must see the same
    quanta.  The last chunk may be shorter.
    """
    path = _require_file(path)
    if fmt == "auto":
        fmt = detect_trace_format(path)
    parser = _FORMAT_PARSERS.get(fmt)
    if parser is None:
        raise TraceError(
            f"unknown trace format {fmt!r}; supported: {', '.join(TRACE_FORMATS)}"
        )
    if chunk_lines <= 0:
        raise TraceError("chunk_lines must be positive")
    pending: List[np.ndarray] = []
    buffered = 0
    for chunk in parser(path):
        pending.append(chunk)
        buffered += len(chunk)
        while buffered >= chunk_lines:
            merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield merged[:chunk_lines]
            rest = merged[chunk_lines:]
            pending = [rest] if len(rest) else []
            buffered = len(rest)
    if buffered:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


# ---------------------------------------------------------------------- #
# Streaming content synthesis
# ---------------------------------------------------------------------- #
def _chunk_entropy(digest: bytes, chunk_index: int, seed: Optional[int]) -> List[int]:
    """SeedSequence entropy of one synthesis quantum.

    ``digest`` is the running SHA-256 over the little-endian address stream
    up to and including this chunk, so the chunk's draws are a pure function
    of the input prefix (plus the optional user seed): re-ingesting the same
    file bit-identically reproduces the same trace, chunk by chunk.
    """
    entropy = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    entropy.append(int(chunk_index))
    if seed is not None:
        entropy.insert(0, int(seed))
    return entropy


class StreamingSynthesizer:
    """Turn an address-only write stream into (old, new) contents, chunk-wise.

    Feed the synthesis quanta of one trace in order; each :meth:`feed` call
    returns the corresponding fully synthesised :class:`WriteTrace` chunk.
    Every distinct line address gets initial content drawn from ``profile``'s
    line-type mix the first time it appears; the j-th write to an address
    mutates the value its (j-1)-th write stored (across chunk boundaries),
    exactly like :class:`~repro.workloads.generator.TraceGenerator` models
    value locality.  Mutation semantics are shared with the trace generator
    via :meth:`LineGenerator.plan_mutations` / ``apply_mutations``.

    Memory: one quantum of content plus the per-address state (last value
    and content type of every line seen so far) -- bounded by the unique
    working set, never by the trace length.
    """

    def __init__(
        self,
        profile: str = DEFAULT_SYNTHESIS_PROFILE,
        seed: Optional[int] = None,
        name: str = "ingested",
    ):
        self.profile = get_profile(profile)
        self.seed = seed
        self.name = name
        self.total_requests = 0
        self._hasher = hashlib.sha256()
        self._chunk_index = 0
        # Every address seen so far, sorted, and the state row of each; rows
        # are numbered in order of first appearance.
        self._seen = np.empty(0, dtype=np.uint64)
        self._seen_rows = np.empty(0, dtype=np.int64)
        self._words = np.empty((0, WORDS_PER_LINE), dtype=np.uint64)
        self._types = np.empty(0, dtype=np.int8)

    @property
    def unique_lines(self) -> int:
        """Distinct line addresses seen so far."""
        return len(self._seen)

    def metadata(self) -> Dict[str, str]:
        """Provenance metadata of the trace synthesised so far."""
        return {
            "profile": self.profile.name,
            "source": "ingest",
            "unique_lines": str(self.unique_lines),
            "synthesis_version": str(SYNTHESIS_VERSION),
        }

    def _grow_state(self, extra: int) -> None:
        needed = len(self._seen) + extra
        capacity = len(self._words)
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 1024)
        words = np.zeros((capacity, WORDS_PER_LINE), dtype=np.uint64)
        words[: len(self._words)] = self._words
        types = np.zeros(capacity, dtype=np.int8)
        types[: len(self._types)] = self._types
        self._words = words
        self._types = types

    def feed(self, addresses: np.ndarray) -> WriteTrace:
        """Synthesise the next chunk of the stream and return it.

        Observed, each call is one ``synthesize`` span: ``chunk``,
        ``requests`` and the ``fresh`` addresses first seen in it.
        """
        addresses = np.ascontiguousarray(
            np.asarray(addresses, dtype=np.uint64).reshape(-1)
        )
        seen = self.unique_lines
        with span("synthesize", chunk=self._chunk_index, requests=len(addresses)) as record:
            trace = self._synthesize(addresses)
            record.set(fresh=self.unique_lines - seen)
        return trace

    def _synthesize(self, addresses: np.ndarray) -> WriteTrace:
        n = len(addresses)
        chunk_index = self._chunk_index
        self._chunk_index += 1
        self.total_requests += n
        self._hasher.update(addresses.astype("<u8", copy=False).tobytes())
        if n == 0:
            return WriteTrace(
                old=LineBatch.zeros(0),
                new=LineBatch.zeros(0),
                addresses=addresses,
                name=self.name,
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(
                _chunk_entropy(self._hasher.digest(), chunk_index, self.seed)
            )
        )
        generator = LineGenerator(self.profile, rng)

        unique, inverse = np.unique(addresses, return_inverse=True)
        at = np.searchsorted(self._seen, unique)
        known = at < len(self._seen)
        known[known] = self._seen[at[known]] == unique[known]
        rows = np.full(len(unique), -1, dtype=np.int64)
        rows[known] = self._seen_rows[at[known]]
        fresh = np.flatnonzero(~known)
        if len(fresh):
            state, types = generator.generate_lines(len(fresh))
            base = len(self._seen)
            self._grow_state(len(fresh))
            self._words[base:base + len(fresh)] = state.words
            self._types[base:base + len(fresh)] = types
            rows[fresh] = base + np.arange(len(fresh))
            self._seen = np.insert(self._seen, at[fresh], unique[fresh])
            self._seen_rows = np.insert(self._seen_rows, at[fresh], rows[fresh])

        request_rows = rows[inverse]
        plan = generator.plan_mutations(n, self._types[request_rows])

        # Occurrence index of each request among the chunk's writes to the
        # same address (0 for the first in-chunk write, ...), vectorised via
        # a stable sort by address -- cross-chunk chains continue through the
        # persistent per-address state.
        order = np.argsort(inverse, kind="stable")
        sorted_inverse = inverse[order]
        boundaries = np.flatnonzero(np.diff(sorted_inverse)) + 1
        starts = np.concatenate([[0], boundaries])
        group_sizes = np.diff(np.concatenate([starts, [n]]))
        occurrence = np.empty(n, dtype=np.int64)
        occurrence[order] = np.arange(n) - np.repeat(starts, group_sizes)

        old_words = np.empty((n, WORDS_PER_LINE), dtype=np.uint64)
        new_words = np.empty_like(old_words)
        occurrence_order = np.argsort(occurrence, kind="stable")
        round_counts = np.bincount(occurrence)
        offsets = np.concatenate([[0], np.cumsum(round_counts)])
        # Round r rewrites every address receiving its (r+1)-th in-chunk
        # write; within a round each address appears once, so the value
        # updates vectorise cleanly and total work stays O(n).
        for r in range(len(round_counts)):
            idx = occurrence_order[offsets[r]:offsets[r + 1]]
            touched = request_rows[idx]
            prev = self._words[touched]
            old_words[idx] = prev
            value = generator.apply_mutations(plan, prev, idx)
            self._words[touched] = value
            new_words[idx] = value
        return WriteTrace(
            old=LineBatch(old_words),
            new=LineBatch(new_words),
            addresses=addresses,
            name=self.name,
            metadata={"profile": self.profile.name, "source": "ingest"},
        )

    def feed_all(self, chunks: Iterable[np.ndarray]) -> Iterator[WriteTrace]:
        """Synthesise every chunk of an address-chunk iterator, in order."""
        for addresses in chunks:
            yield self.feed(addresses)


def synthesize_write_trace(
    addresses: np.ndarray,
    profile: str = DEFAULT_SYNTHESIS_PROFILE,
    name: str = "ingested",
    seed: Optional[int] = None,
    chunk_lines: int = SYNTHESIS_CHUNK_LINES,
) -> WriteTrace:
    """Turn an address-only write stream into a full (old, new) write trace.

    In-memory wrapper over :class:`StreamingSynthesizer`: the addresses are
    cut into the standard synthesis quanta and the resulting chunks are
    concatenated, so the output is bit-identical to what the streaming path
    writes for the same stream.  Only override ``chunk_lines`` to mirror a
    streaming consumer using the same non-default quantum.
    """
    addresses = np.asarray(addresses, dtype=np.uint64).reshape(-1)
    synthesizer = StreamingSynthesizer(profile=profile, seed=seed, name=name)
    if len(addresses) == 0:
        return WriteTrace(
            old=LineBatch.zeros(0),
            new=LineBatch.zeros(0),
            addresses=addresses,
            name=name,
            metadata=synthesizer.metadata(),
        )
    chunks = [
        synthesizer.feed(addresses[start:start + chunk_lines])
        for start in range(0, len(addresses), chunk_lines)
    ]
    trace = WriteTrace.concat(chunks, name=name, metadata=synthesizer.metadata())
    # concat drops per-part addresses only when absent; rebuild the exact
    # input array either way so callers see their own object semantics.
    trace.addresses = addresses
    return trace


def ingest_trace_file(
    path: Union[str, Path],
    fmt: str = "auto",
    profile: str = DEFAULT_SYNTHESIS_PROFILE,
    name: Optional[str] = None,
    seed: Optional[int] = None,
    chunk_lines: int = SYNTHESIS_CHUNK_LINES,
) -> WriteTrace:
    """Parse an external trace file and synthesise a full write trace.

    ``fmt`` is one of :data:`TRACE_FORMATS` or ``"auto"`` (sniff from the
    first data line).  The result records the source format and file in its
    metadata.  This materialises the whole trace; for traces larger than RAM
    use :func:`stream_ingest_to_wtrc` or :class:`IngestChunkSource`, which
    produce bit-identical data (given the same synthesis quantum
    ``chunk_lines``) with bounded memory.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = detect_trace_format(path)
    parser = _FORMAT_PARSERS.get(fmt)
    if parser is None:
        raise TraceError(
            f"unknown trace format {fmt!r}; supported: {', '.join(TRACE_FORMATS)}"
        )
    # The parser's buffers concatenate straight into the flat array --
    # synthesize_write_trace re-cuts it into quanta itself, so routing
    # through iter_trace_address_chunks' rechunking would just add a copy.
    addresses = _concat_address_chunks(parser(path))
    trace = synthesize_write_trace(
        addresses,
        profile=profile,
        name=name or path.stem,
        seed=seed,
        chunk_lines=chunk_lines,
    )
    trace.metadata["source_format"] = fmt
    trace.metadata["source_file"] = path.name
    return trace


def stream_ingest_to_wtrc(
    path: Union[str, Path],
    out: Union[str, Path],
    fmt: str = "auto",
    profile: str = DEFAULT_SYNTHESIS_PROFILE,
    name: Optional[str] = None,
    seed: Optional[int] = None,
    chunk_lines: int = SYNTHESIS_CHUNK_LINES,
) -> Path:
    """Stream-convert an external ASCII trace straight to a ``.wtrc`` file.

    Parsing, content synthesis and the on-disk write all proceed one
    synthesis quantum at a time (see :class:`~repro.traces.store
    .TraceWriter`), so a multi-gigabyte input trace converts with peak
    memory bounded by the quantum plus the unique-line state -- the input
    never materialises.  The output file is byte-identical to saving
    :func:`ingest_trace_file`'s result with :func:`~repro.traces.store
    .save_trace`.
    """
    from .store import TraceWriter

    return _stream_ingest(TraceWriter, path, out, fmt, profile, name, seed, chunk_lines)


def stream_ingest_to_npz(
    path: Union[str, Path],
    out: Union[str, Path],
    fmt: str = "auto",
    profile: str = DEFAULT_SYNTHESIS_PROFILE,
    name: Optional[str] = None,
    seed: Optional[int] = None,
    chunk_lines: int = SYNTHESIS_CHUNK_LINES,
) -> Path:
    """Stream-convert an external ASCII trace straight to a ``.npz`` archive.

    Same pipeline as :func:`stream_ingest_to_wtrc` -- parse, synthesise and
    spool one quantum at a time -- finalised through
    :class:`~repro.traces.store.NpzTraceWriter`, which streams the spooled
    columns into the compressed archive instead of materialising the whole
    trace.  Loading the result equals loading a save of
    :func:`ingest_trace_file`'s materialised trace, array for array (the zip
    framing itself is not byte-stable across writers).
    """
    from .store import NpzTraceWriter

    return _stream_ingest(NpzTraceWriter, path, out, fmt, profile, name, seed, chunk_lines)


def _stream_ingest(
    writer_cls,
    path: Union[str, Path],
    out: Union[str, Path],
    fmt: str,
    profile: str,
    name: Optional[str],
    seed: Optional[int],
    chunk_lines: int,
) -> Path:
    path = Path(path)
    if fmt == "auto":
        fmt = detect_trace_format(path)
    synthesizer = StreamingSynthesizer(
        profile=profile, seed=seed, name=name or path.stem
    )
    # has_addresses preset: a trace with zero writes yields no chunks, but
    # the in-memory path still records an (empty) address array -- the empty
    # streamed file must say the same to stay byte-identical.
    with writer_cls(out, name=synthesizer.name, has_addresses=True) as writer:
        for chunk in synthesizer.feed_all(
            iter_trace_address_chunks(path, fmt, chunk_lines)
        ):
            writer.append(chunk)
        writer.metadata.update(synthesizer.metadata())
        writer.metadata["source_format"] = fmt
        writer.metadata["source_file"] = path.name
    return writer.path


class IngestChunkSource:
    """A :class:`~repro.workloads.trace.ChunkSource` over an ASCII trace file.

    Evaluating this source streams the file end to end -- parse, synthesise,
    evaluate -- without ever materialising the trace: each ``chunks()`` call
    re-opens the file and replays the deterministic synthesis, so the source
    is re-iterable (several work units can evaluate it) at the cost of
    re-parsing per iteration.  Chunk boundaries and contents are bit-identical
    to ``ingest_trace_file(...)``'s materialised trace cut at ``chunk_size``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fmt: str = "auto",
        profile: str = DEFAULT_SYNTHESIS_PROFILE,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        chunk_lines: int = SYNTHESIS_CHUNK_LINES,
    ):
        self.path = _require_file(path)
        self.fmt = detect_trace_format(self.path) if fmt == "auto" else fmt
        if self.fmt not in _FORMAT_PARSERS:
            raise TraceError(
                f"unknown trace format {self.fmt!r}; "
                f"supported: {', '.join(TRACE_FORMATS)}"
            )
        self.profile = profile
        self.seed = seed
        self.name = name or self.path.stem
        self.chunk_lines = chunk_lines

    def chunks(self, chunk_size: int) -> Iterator[WriteTrace]:
        synthesizer = StreamingSynthesizer(
            profile=self.profile, seed=self.seed, name=self.name
        )
        pieces = synthesizer.feed_all(
            iter_trace_address_chunks(self.path, self.fmt, self.chunk_lines)
        )
        return rechunk_traces(pieces, chunk_size)
