"""Bit-matrix oracle of the compression kernels (one ``uint8`` per bit).

The compressors build and read their streams as packed ``uint64`` words
(:mod:`repro.compression.kernels`).  This module keeps the earlier
bit-matrix implementation -- per-bit cursor loops, broadcast field
packing, ragged segment compaction and every compressor's batch path on
bit matrices -- as the stream-for-stream reference the word kernels are
tested against.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.compression import (
    BDICompressor,
    BDIVariant,
    COCCompressor,
    FPCBDICompressor,
    FPCCompressor,
    PackedBits,
    RawLineCompressor,
    RepeatedValueCompressor,
    WLCCompressor,
    WordDeltaCompressor,
    ZeroLineCompressor,
    elements_to_line,
    line_elements,
)
from repro.compression.fpc import (
    PATTERN_PAYLOAD_BITS,
    PREFIX_BITS,
    WORDS32_PER_LINE,
    classify_words32,
    line_to_words32,
    payloads_for_patterns,
    words32_to_line,
    words_from_payloads,
)
from repro.core.errors import CompressionError
from repro.core.line import LineBatch
from repro.core.symbols import BITS_PER_LINE, BITS_PER_WORD, WORDS_PER_LINE


class BitStreams(NamedTuple):
    """Zero-padded ``(n, width)`` bit matrix plus per-line stream lengths."""

    bits: np.ndarray
    lengths: np.ndarray


# ---------------------------------------------------------------------- #
# Per-bit cursor loops
# ---------------------------------------------------------------------- #
def pack_bits_lsb_first(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Pack integer fields into a bit stream, least significant bit first."""
    values = np.asarray(values, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    if values.shape != widths.shape:
        raise CompressionError("values and widths must be aligned")
    bits = np.zeros(int(widths.sum()), dtype=np.uint8)
    cursor = 0
    for value, width in zip(values, widths):
        for b in range(int(width)):
            bits[cursor + b] = (int(value) >> b) & 1
        cursor += int(width)
    return bits


def unpack_bits_lsb_first(bits: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bits_lsb_first`; returns one integer per field."""
    bits = np.asarray(bits, dtype=np.uint8)
    widths = np.asarray(widths, dtype=np.int64)
    if int(widths.sum()) > bits.shape[0]:
        raise CompressionError("bit stream too short for requested fields")
    values = np.zeros(widths.shape[0], dtype=np.uint64)
    cursor = 0
    for i, width in enumerate(widths):
        value = 0
        for b in range(int(width)):
            value |= int(bits[cursor + b]) << b
        values[i] = value
        cursor += int(width)
    return values


# ---------------------------------------------------------------------- #
# Bit-matrix kernels
# ---------------------------------------------------------------------- #
def unpack_fields(values, width: int) -> np.ndarray:
    """``(...,)`` integers to their ``width`` low bits, ``(..., width)``, LSB first."""
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return ((values[..., None] >> shifts) & np.uint64(1)).astype(np.uint8)


def pack_fields(bits) -> np.ndarray:
    """Pack LSB-first bits along the last axis back into ``uint64`` integers."""
    bits = np.asarray(bits, dtype=np.uint64)
    if bits.shape[-1] > 64:
        raise CompressionError("cannot pack more than 64 bits into one field")
    shifts = np.arange(bits.shape[-1], dtype=np.uint64)
    return (bits << shifts).sum(axis=-1, dtype=np.uint64)


def compact_segments(seg_bits, seg_widths) -> BitStreams:
    """Concatenate per-line segments (first ``seg_widths[i, s]`` bits of each)."""
    seg_bits = np.asarray(seg_bits, dtype=np.uint8)
    seg_widths = np.asarray(seg_widths, dtype=np.int64)
    n, segments, max_width = seg_bits.shape
    if seg_widths.shape != (n, segments):
        raise CompressionError("segment widths must align with the segment bits")
    lengths = seg_widths.sum(axis=1, dtype=np.int64)
    width = int(lengths.max(initial=0))
    valid = np.arange(max_width, dtype=np.int64) < seg_widths[..., None]
    out = np.zeros((n, width), dtype=np.uint8)
    out[np.arange(width, dtype=np.int64) < lengths[:, None]] = seg_bits[valid]
    return BitStreams(out, lengths)


def hstack_bits(parts: Sequence[BitStreams]) -> BitStreams:
    """Concatenate several bit-matrix blocks line-wise (ragged-aware)."""
    if not parts:
        raise CompressionError("hstack_bits needs at least one part")
    n = len(parts[0].lengths)
    widths = [part.bits.shape[1] for part in parts]
    seg_bits = np.zeros((n, len(parts), max(widths)), dtype=np.uint8)
    seg_widths = np.zeros((n, len(parts)), dtype=np.int64)
    for index, part in enumerate(parts):
        if len(part.lengths) != n:
            raise CompressionError("hstack_bits parts must have equal line counts")
        seg_bits[:, index, : part.bits.shape[1]] = part.bits
        seg_widths[:, index] = part.lengths
    return compact_segments(seg_bits, seg_widths)


# ---------------------------------------------------------------------- #
# Conversion to packed words
# ---------------------------------------------------------------------- #
def to_packed(streams: BitStreams, name: str) -> PackedBits:
    """The word batch of a bit matrix."""
    rows = [streams.bits[i, :length] for i, length in enumerate(streams.lengths)]
    return PackedBits.from_streams(rows, name)


def _constant(bits: np.ndarray, length: int) -> BitStreams:
    return BitStreams(bits, np.full(bits.shape[0], length, dtype=np.int64))


def _tagged(choice: np.ndarray, tag_bits: int, members, words: np.ndarray) -> BitStreams:
    n = words.shape[0]
    inner_bits = np.zeros((n, 0), dtype=np.uint8)
    inner_lengths = np.zeros(n, dtype=np.int64)
    for index, member in enumerate(members):
        rows = np.nonzero(choice == index)[0]
        if rows.size == 0:
            continue
        part = compress(member, words[rows])
        if part.bits.shape[1] > inner_bits.shape[1]:
            grown = np.zeros((n, part.bits.shape[1]), dtype=np.uint8)
            grown[:, : inner_bits.shape[1]] = inner_bits
            inner_bits = grown
        inner_bits[rows, : part.bits.shape[1]] = part.bits
        inner_lengths[rows] = part.lengths
    tag = _constant(unpack_fields(choice.astype(np.uint64), tag_bits), tag_bits)
    return hstack_bits([tag, BitStreams(inner_bits, inner_lengths)])


# ---------------------------------------------------------------------- #
# Compressor batch paths on bit matrices
# ---------------------------------------------------------------------- #
def compress(compressor, words: np.ndarray) -> BitStreams:
    """The bit-matrix streams of ``compressor`` for ``(n, 8)`` eligible lines."""
    words = np.asarray(words, dtype=np.uint64)
    n = words.shape[0]
    if isinstance(compressor, ZeroLineCompressor):
        return _constant(np.zeros((n, 0), dtype=np.uint8), 0)
    if isinstance(compressor, RepeatedValueCompressor):
        return _constant(unpack_fields(words[:, 0], 64), 64)
    if isinstance(compressor, RawLineCompressor):
        return _constant(unpack_fields(words, 64).reshape(n, BITS_PER_LINE), BITS_PER_LINE)
    if isinstance(compressor, BDIVariant):
        elements = line_elements(words, compressor.base_bytes)
        deltas = compressor._deltas(elements)
        mask = np.uint64((1 << (compressor.delta_bytes * 8)) - 1)
        base_bits = unpack_fields(elements[:, 0].astype(np.uint64), compressor.base_bytes * 8)
        delta_bits = unpack_fields(deltas.astype(np.uint64) & mask, compressor.delta_bytes * 8)
        delta_bits = delta_bits.reshape(n, compressor.elements_per_line * compressor.delta_bytes * 8)
        bits = np.concatenate([base_bits, delta_bits], axis=1)
        return _constant(bits, compressor.compressed_bits)
    if isinstance(compressor, WordDeltaCompressor):
        mask = np.uint64((1 << compressor.delta_bits) - 1)
        deltas = (words[:, 1:] - words[:, :1]) & mask
        bits = np.concatenate(
            [unpack_fields(words[:, 0], 64),
             unpack_fields(deltas, compressor.delta_bits).reshape(n, 7 * compressor.delta_bits)],
            axis=1,
        )
        return _constant(bits, compressor.compressed_bits)
    if isinstance(compressor, WLCCompressor):
        keep = BITS_PER_WORD - compressor.reclaimed_bits_per_word
        bits = unpack_fields(words, keep).reshape(n, keep * WORDS_PER_LINE)
        return _constant(bits, keep * WORDS_PER_LINE)
    if isinstance(compressor, FPCCompressor):
        words32 = line_to_words32(words)
        patterns = classify_words32(words32)
        payloads = payloads_for_patterns(words32, patterns)
        seg_bits = np.concatenate(
            [unpack_fields(patterns.astype(np.uint64), PREFIX_BITS),
             unpack_fields(payloads.astype(np.uint64), 32)],
            axis=-1,
        )
        widths = PREFIX_BITS + np.asarray(PATTERN_PAYLOAD_BITS, dtype=np.int64)[patterns]
        return compact_segments(seg_bits, widths)
    batch = LineBatch(words)
    if isinstance(compressor, BDICompressor):
        choice = compressor.variant_sizes(batch).argmin(axis=0)
        return _tagged(choice, compressor.tag_bits, compressor.variants, words)
    if isinstance(compressor, FPCBDICompressor):
        fpc_sizes = compressor.fpc.sizes_bits(batch)
        bdi_sizes = compressor.bdi.sizes_bits(batch)
        use_bdi = (bdi_sizes < fpc_sizes) & (bdi_sizes < BITS_PER_LINE)
        return _tagged(use_bdi.astype(np.int64), 1, (compressor.fpc, compressor.bdi), words)
    if isinstance(compressor, COCCompressor):
        choice = compressor._member_choice(compressor.member_sizes(batch))
        return _tagged(choice, compressor.tag_bits, compressor.members, words)
    raise TypeError(f"no bit-matrix oracle for {type(compressor).__name__}")


def _untagged(tag_bits: int, members, streams: BitStreams) -> np.ndarray:
    tags = pack_fields(streams.bits[:, :tag_bits]).astype(np.int64)
    bad = tags[tags >= len(members)]
    if bad.size:
        raise CompressionError(f"unknown tag {int(bad[0])}")
    words = np.zeros((len(tags), WORDS_PER_LINE), dtype=np.uint64)
    for index, member in enumerate(members):
        rows = np.nonzero(tags == index)[0]
        if rows.size:
            inner = BitStreams(
                streams.bits[rows, tag_bits:], streams.lengths[rows] - tag_bits
            )
            words[rows] = decompress(member, inner)
    return words


def _fpc_decode(streams: BitStreams) -> np.ndarray:
    bits, lengths = streams
    n = len(lengths)
    payload_widths = np.asarray(PATTERN_PAYLOAD_BITS, dtype=np.int64)
    cursor = np.zeros(n, dtype=np.int64)
    words32 = np.zeros((n, WORDS32_PER_LINE), dtype=np.uint32)
    column_cap = bits.shape[1] - 1
    for i in range(WORDS32_PER_LINE):
        if bool(np.any(cursor + PREFIX_BITS > lengths)):
            raise CompressionError("truncated FPC stream")
        prefix_cols = cursor[:, None] + np.arange(PREFIX_BITS, dtype=np.int64)
        patterns = pack_fields(
            np.take_along_axis(bits, np.minimum(prefix_cols, column_cap), axis=1)
        ).astype(np.uint8)
        cursor = cursor + PREFIX_BITS
        widths = payload_widths[patterns]
        if bool(np.any(cursor + widths > lengths)):
            raise CompressionError("truncated FPC stream")
        payload_cols = cursor[:, None] + np.arange(32, dtype=np.int64)
        payload_bits = np.take_along_axis(bits, np.minimum(payload_cols, column_cap), axis=1)
        payload_bits = payload_bits * (np.arange(32, dtype=np.int64) < widths[:, None])
        cursor = cursor + widths
        words32[:, i] = words_from_payloads(pack_fields(payload_bits).astype(np.uint32), patterns)
    return words32_to_line(words32)


def decompress(compressor, streams: BitStreams) -> np.ndarray:
    """The ``(n, 8)`` lines of bit-matrix ``streams`` (lengths are not checked)."""
    bits, lengths = streams
    n = len(lengths)
    if n == 0:
        return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
    if isinstance(compressor, ZeroLineCompressor):
        return np.zeros((n, WORDS_PER_LINE), dtype=np.uint64)
    if isinstance(compressor, RepeatedValueCompressor):
        return np.repeat(pack_fields(bits[:, :64])[:, None], WORDS_PER_LINE, axis=1)
    if isinstance(compressor, RawLineCompressor):
        return pack_fields(bits[:, :BITS_PER_LINE].reshape(n, WORDS_PER_LINE, 64))
    if isinstance(compressor, BDIVariant):
        base_width, delta_width = compressor.base_bytes * 8, compressor.delta_bytes * 8
        base = pack_fields(bits[:, :base_width])
        count = compressor.elements_per_line
        raw = pack_fields(
            bits[:, base_width : base_width + count * delta_width].reshape(n, count, delta_width)
        )
        sign_bit = np.uint64(1 << (delta_width - 1))
        delta = np.where((raw & sign_bit).astype(bool), raw - np.uint64(1 << delta_width), raw)
        elements = base[:, None] + delta
        if base_width < 64:
            elements &= np.uint64((1 << base_width) - 1)
        return elements_to_line(elements, compressor.base_bytes)
    if isinstance(compressor, WordDeltaCompressor):
        width = compressor.delta_bits
        base = pack_fields(bits[:, :64])
        raw = pack_fields(
            bits[:, 64 : 64 + (WORDS_PER_LINE - 1) * width].reshape(n, WORDS_PER_LINE - 1, width)
        )
        sign = np.uint64(1 << (width - 1))
        delta = np.where((raw & sign).astype(bool), raw - np.uint64(1 << width), raw)
        return np.concatenate([base[:, None], base[:, None] + delta], axis=1)
    if isinstance(compressor, WLCCompressor):
        keep = BITS_PER_WORD - compressor.reclaimed_bits_per_word
        words = pack_fields(bits[:, : keep * WORDS_PER_LINE].reshape(n, WORDS_PER_LINE, keep))
        return compressor.sign_extend(words)
    if isinstance(compressor, FPCCompressor):
        return _fpc_decode(streams)
    if isinstance(compressor, BDICompressor):
        return _untagged(compressor.tag_bits, compressor.variants, streams)
    if isinstance(compressor, FPCBDICompressor):
        return _untagged(1, (compressor.fpc, compressor.bdi), streams)
    if isinstance(compressor, COCCompressor):
        return _untagged(compressor.tag_bits, compressor.members, streams)
    raise TypeError(f"no bit-matrix oracle for {type(compressor).__name__}")
