"""Word-level bit-packing kernels shared by every compression substrate.

Every compressor exposes a *batch* interface
(:meth:`~repro.compression.base.Compressor.compress_batch` /
:meth:`~repro.compression.base.Compressor.decompress_batch`) whose streams
live in :class:`PackedBits`: per line, the compressed bit stream as
little-endian ``uint64`` words (bit ``j`` of the stream is bit ``j % 64`` of
word ``j // 64``), zero past the stream length.  Three kernels build and read
those words without ever materialising one byte per bit:

* :func:`lay_fields` -- lay per-line fields of varying widths (e.g. FPC's
  sixteen prefix+payload fields) back to back.  Each field's bit offset is a
  prefix sum of the widths, so it lands in at most two words; fields never
  overlap, so one OR-reduction over the ordered pieces builds every word;
* :func:`prepend_field` -- put a tag or header in front of every stream
  (one multi-word shift);
* :func:`take_fields` -- read fields at per-line (or per-field) bit cursors,
  the decode primitive; :func:`split_field` uses it to strip a leading tag.

Each kernel call is timed into the ``kernel_ms{kernel}`` histogram while
an observation is active: kernels run far too often for one span each.

Dtype discipline matters here: every intermediate carries an explicit
``uint64``/``int64`` dtype, so no result depends on numpy quietly promoting a
python-int literal.  Shifts rely on numpy's defined behaviour for unsigned
shift counts of 64 or more (the result is 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..core.errors import CompressionError
from ..obs import timer

__all__ = [
    "PackedBits",
    "lay_fields",
    "prepend_field",
    "take_fields",
    "split_field",
    "merge_rows",
]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _low_mask(widths) -> np.ndarray:
    """``2**width - 1`` as ``uint64`` for widths ``0..64``."""
    return ~(_ALL_ONES << np.asarray(widths, dtype=np.uint64))


def _words_for(bits: int) -> int:
    return -(-bits // 64)


@dataclass(frozen=True)
class PackedBits:
    """Batched bit-exact compressed streams (one row per memory line).

    Attributes
    ----------
    words:
        ``(n, n_words)`` ``uint64`` array; bit ``j`` of stream ``i`` is bit
        ``j % 64`` of ``words[i, j // 64]``.  The compressors leave bits past
        a stream's length zero; decoders ignore them.
    lengths:
        ``(n,)`` ``int64`` array of per-line stream lengths in bits, at most
        ``64 * n_words``.
    compressor:
        Name of the compressor that produced the streams.
    """

    words: np.ndarray
    lengths: np.ndarray
    compressor: str

    def __post_init__(self) -> None:
        words = np.asarray(self.words, dtype=np.uint64)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if words.ndim != 2 or lengths.ndim != 1 or words.shape[0] != lengths.shape[0]:
            raise CompressionError(
                f"PackedBits needs (n, n_words) words and (n,) lengths, got "
                f"{words.shape} and {lengths.shape}"
            )
        if lengths.size and int(lengths.max()) > 64 * words.shape[1]:
            raise CompressionError("PackedBits lengths exceed 64 bits per word")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return int(self.words.shape[0])

    def line(self, index: int):
        """The ``index``-th stream as a scalar :class:`CompressedLine` (a copy)."""
        from .base import CompressedLine

        row = np.ascontiguousarray(self.words[index], dtype="<u8")
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return CompressedLine(bits=bits[: int(self.lengths[index])], compressor=self.compressor)

    def lines(self) -> Iterator:
        """Iterate over the scalar :class:`CompressedLine` views."""
        for index in range(len(self)):
            yield self.line(index)

    def rows(self, index) -> "PackedBits":
        """The streams of the lines selected by ``index``."""
        return PackedBits(self.words[index], self.lengths[index], self.compressor)

    @classmethod
    def from_streams(cls, streams: Sequence[np.ndarray], compressor: str) -> "PackedBits":
        """Pack a list of 1-D bit arrays (values 0/1, LSB first) into words."""
        lengths = np.array([int(np.asarray(s).shape[0]) for s in streams], dtype=np.int64)
        n_words = _words_for(int(lengths.max(initial=0)))
        bits = np.zeros((len(lengths), 64 * n_words), dtype=np.uint8)
        for row, stream in enumerate(streams):
            bits[row, : lengths[row]] = np.asarray(stream, dtype=np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        return cls(packed.view("<u8"), lengths, compressor)


def lay_fields(values, widths, compressor: str) -> PackedBits:
    """Lay every line's fields back to back, in field order, LSB first.

    Parameters
    ----------
    values:
        ``(n, f)`` integers; field ``k`` of line ``i`` contributes the low
        ``widths[i, k]`` bits of ``values[i, k]``.
    widths:
        Field widths in bits (``0..64``), broadcastable to ``(n, f)``: an
        ``(f,)`` row for a fixed layout, ``(n, f)`` for ragged ones.

    Returns
    -------
    PackedBits
        Stream ``i`` is the concatenation of line ``i``'s fields -- exactly
        what a scalar cursor loop would build -- in ``ceil(max length / 64)``
        words.
    """
    values = np.asarray(values, dtype=np.uint64)
    n, fields = values.shape
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), (n, fields))
    with timer("kernel_ms", kernel="lay_fields"):
        ends = np.cumsum(widths, axis=1, dtype=np.int64)
        lengths = ends[:, -1] if fields else np.zeros(n, dtype=np.int64)
        n_words = _words_for(int(lengths.max(initial=0)))
        words = np.zeros((n, n_words), dtype=np.uint64)
        if n_words == 0:
            return PackedBits(words, lengths, compressor)
        starts = ends - widths
        shift = (starts & 63).astype(np.uint64)
        values = values & _low_mask(widths)
        # A field spills into the next word when it crosses a word edge; the
        # spill goes to word + 1, the word of the next field's start, so the
        # pieces' word indexes never decrease.  A zero-width field at the
        # very end points one word past the stream: clip it (it is 0).
        word = np.minimum(starts >> 6, n_words - 1)
        spills = (shift + widths.astype(np.uint64)) > np.uint64(64)
        pieces = np.stack([values << shift, values >> (np.uint64(64) - shift)], axis=-1)
        targets = np.stack([word, word + spills], axis=-1)
        targets += (np.arange(n, dtype=np.int64) * n_words)[:, None, None]
        pieces, targets = pieces.reshape(-1), targets.reshape(-1)
        first = np.ones(targets.size, dtype=bool)
        np.not_equal(targets[1:], targets[:-1], out=first[1:])
        heads = np.flatnonzero(first)
        words.reshape(-1)[targets[heads]] = np.bitwise_or.reduceat(pieces, heads)
        return PackedBits(words, lengths, compressor)


def prepend_field(packed: PackedBits, values, width: int) -> PackedBits:
    """Put the low ``width`` bits (``0..64``) of ``values[i]`` in front of stream ``i``.

    One multi-word shift of the whole batch: every word moves up by
    ``width`` bits and its top ``width`` bits carry into the next word.
    """
    old = packed.words
    n, old_words = old.shape
    lengths = packed.lengths + width
    with timer("kernel_ms", kernel="prepend_field"):
        n_words = _words_for(int(lengths.max(initial=0)))
        words = np.zeros((n, n_words), dtype=np.uint64)
        if n_words == 0:
            return PackedBits(words, lengths, packed.compressor)
        # Bits past a stream are zero, so words dropped here are empty.
        keep = min(old_words, n_words)
        carry = min(old_words, n_words - 1)
        up = np.uint64(width)
        words[:, :keep] = old[:, :keep] << up
        words[:, 1 : carry + 1] |= old[:, :carry] >> (np.uint64(64) - up)
        words[:, 0] |= np.asarray(values, dtype=np.uint64) & _low_mask(width)
        return PackedBits(words, lengths, packed.compressor)


def take_fields(words: np.ndarray, cursors, widths) -> np.ndarray:
    """Read the ``widths``-bit fields (``0..64``) starting at bit ``cursors``.

    ``cursors`` and ``widths`` broadcast against ``(n, f)``: ``(n, 1)`` for
    one cursor per line, ``(f,)`` for a fixed layout.  Returns the
    ``(n, f)`` ``uint64`` field values.  A field is read from at most two
    words; reads past the last word see that word's bits, so callers must
    only trust fields that lie inside their streams (which they check
    against the stream lengths).
    """
    words = np.asarray(words, dtype=np.uint64)
    n, n_words = words.shape
    cursors = np.atleast_2d(np.asarray(cursors, dtype=np.int64))
    with timer("kernel_ms", kernel="take_fields"):
        if n_words == 0:
            shape = np.broadcast_shapes((n, 1), cursors.shape, np.shape(widths))
            return np.zeros(shape, dtype=np.uint64)
        rows = (np.arange(n, dtype=np.int64) * n_words)[:, None]
        word = cursors >> 6
        flat = words.reshape(-1)
        shift = (cursors & 63).astype(np.uint64)
        low = flat.take(rows + np.minimum(word, n_words - 1)) >> shift
        high = flat.take(rows + np.minimum(word + 1, n_words - 1)) << (np.uint64(64) - shift)
        return (low | high) & _low_mask(widths)


def split_field(packed: PackedBits, width: int) -> Tuple[np.ndarray, PackedBits]:
    """Inverse of :func:`prepend_field`: each stream's leading field and the rest.

    Every stream must hold at least ``width`` bits (callers check).
    """
    lengths = packed.lengths - width
    n_words = _words_for(int(lengths.max(initial=0)))
    head = take_fields(packed.words, 0, width)[:, 0]
    rest = take_fields(packed.words, width + 64 * np.arange(n_words, dtype=np.int64), 64)
    return head, PackedBits(np.ascontiguousarray(rest), lengths, packed.compressor)


def merge_rows(n: int, parts, compressor: str) -> PackedBits:
    """One ``n``-line batch from a list of ``(rows, PackedBits)`` parts on disjoint rows."""
    words = np.zeros((n, max((p.words.shape[1] for _, p in parts), default=0)), dtype=np.uint64)
    lengths = np.zeros(n, dtype=np.int64)
    for rows, part in parts:
        words[rows, : part.words.shape[1]] = part.words
        lengths[rows] = part.lengths
    return PackedBits(words, lengths, compressor)
