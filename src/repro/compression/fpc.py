"""Frequent Pattern Compression (FPC) [Alameldeen & Wood, 2004].

FPC scans a memory line as sixteen 32-bit words and replaces each word that
matches one of seven frequent patterns (zero, sign-extended narrow values,
zero-padded halfword, repeated bytes) with a 3-bit prefix plus a shortened
payload.  Words that match no pattern are stored uncompressed behind the
``111`` prefix.  The paper uses FPC (combined with BDI) both as the
compression front-end of the DIN baseline and as the comparison point of
Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import WORDS_PER_LINE
from .base import Compressor
from .kernels import PackedBits, lay_fields, take_fields

#: Number of 32-bit words per 512-bit line.
WORDS32_PER_LINE = 16
#: Width of the per-word pattern prefix in bits.
PREFIX_BITS = 3

#: Payload size in bits for each FPC pattern, indexed by prefix value.
PATTERN_PAYLOAD_BITS = (0, 4, 8, 16, 16, 16, 8, 32)
#: Human-readable pattern names, indexed by prefix value.
PATTERN_NAMES = (
    "zero",
    "sign-extended-4bit",
    "sign-extended-byte",
    "sign-extended-halfword",
    "zero-padded-halfword",
    "two-sign-extended-bytes",
    "repeated-bytes",
    "uncompressed",
)


def line_to_words32(words: np.ndarray) -> np.ndarray:
    """Split 64-bit words into 32-bit words (low half first)."""
    words = np.asarray(words, dtype=np.uint64)
    low = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (words >> np.uint64(32)).astype(np.uint32)
    stacked = np.stack([low, high], axis=-1)
    return stacked.reshape(words.shape[:-1] + (words.shape[-1] * 2,))


def words32_to_line(words32: np.ndarray) -> np.ndarray:
    """Merge 32-bit words back into 64-bit words (inverse of :func:`line_to_words32`)."""
    words32 = np.asarray(words32, dtype=np.uint64)
    pairs = words32.reshape(words32.shape[:-1] + (words32.shape[-1] // 2, 2))
    return pairs[..., 0] | (pairs[..., 1] << np.uint64(32))


def classify_words32(words32: np.ndarray) -> np.ndarray:
    """Assign an FPC pattern (prefix value 0..7) to every 32-bit word."""
    w = np.asarray(words32, dtype=np.uint32)
    signed = w.astype(np.int32)
    halves_low = (w & np.uint32(0xFFFF)).astype(np.uint16).astype(np.int16)
    halves_high = (w >> np.uint32(16)).astype(np.uint16).astype(np.int16)
    bytes_ = np.stack([(w >> np.uint32(8 * i)) & np.uint32(0xFF) for i in range(4)], axis=-1)

    pattern = np.full(w.shape, 7, dtype=np.uint8)
    repeated = (bytes_[..., 0] == bytes_[..., 1]) & (bytes_[..., 1] == bytes_[..., 2]) & (
        bytes_[..., 2] == bytes_[..., 3]
    )
    two_bytes = (
        (halves_low >= -128) & (halves_low < 128) & (halves_high >= -128) & (halves_high < 128)
    )
    zero_padded = (w & np.uint32(0xFFFF)) == 0
    se_half = (signed >= -(1 << 15)) & (signed < (1 << 15))
    se_byte = (signed >= -(1 << 7)) & (signed < (1 << 7))
    se_4bit = (signed >= -8) & (signed < 8)
    zero = w == 0

    # Later assignments take priority (most specific patterns win).
    pattern[repeated] = 6
    pattern[two_bytes] = 5
    pattern[zero_padded] = 4
    pattern[se_half] = 3
    pattern[se_byte] = 2
    pattern[se_4bit] = 1
    pattern[zero] = 0
    return pattern


def payloads_for_patterns(words32: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Vectorised :func:`payload_for_pattern` over aligned word/pattern arrays."""
    w = np.asarray(words32, dtype=np.uint32)
    patterns = np.asarray(patterns, dtype=np.uint8)
    choices = [
        np.zeros_like(w),                                            # zero
        w & np.uint32(0xF),                                          # 4-bit
        w & np.uint32(0xFF),                                         # byte
        w & np.uint32(0xFFFF),                                       # halfword
        (w >> np.uint32(16)) & np.uint32(0xFFFF),                    # zero-padded
        (w & np.uint32(0xFF)) | (((w >> np.uint32(16)) & np.uint32(0xFF)) << np.uint32(8)),
        w & np.uint32(0xFF),                                         # repeated bytes
        w,                                                           # uncompressed
    ]
    return np.select([patterns == p for p in range(8)], choices)


def words_from_payloads(payloads: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Vectorised :func:`word_from_payload` over aligned payload/pattern arrays."""
    p = np.asarray(payloads, dtype=np.uint32)
    patterns = np.asarray(patterns, dtype=np.uint8)

    def sign_extend(values: np.ndarray, width: int) -> np.ndarray:
        sign = np.uint32(1 << (width - 1))
        upper = np.uint32((0xFFFFFFFF >> width) << width)
        return np.where((values & sign).astype(bool), values | upper, values)

    low = p & np.uint32(0xFF)
    high = (p >> np.uint32(8)) & np.uint32(0xFF)
    low16 = np.where((low & np.uint32(0x80)).astype(bool), low | np.uint32(0xFF00), low)
    high16 = np.where((high & np.uint32(0x80)).astype(bool), high | np.uint32(0xFF00), high)
    byte = p & np.uint32(0xFF)
    choices = [
        np.zeros_like(p),
        sign_extend(p & np.uint32(0xF), 4),
        sign_extend(p & np.uint32(0xFF), 8),
        sign_extend(p & np.uint32(0xFFFF), 16),
        (p & np.uint32(0xFFFF)) << np.uint32(16),
        low16 | (high16 << np.uint32(16)),
        byte | (byte << np.uint32(8)) | (byte << np.uint32(16)) | (byte << np.uint32(24)),
        p,
    ]
    return np.select([patterns == q for q in range(8)], choices).astype(np.uint32)


def payload_for_pattern(word: int, pattern: int) -> int:
    """Extract the payload bits stored for a 32-bit word under a pattern."""
    if pattern == 0:
        return 0
    if pattern == 1:
        return word & 0xF
    if pattern == 2:
        return word & 0xFF
    if pattern == 3:
        return word & 0xFFFF
    if pattern == 4:
        return (word >> 16) & 0xFFFF
    if pattern == 5:
        # One byte per halfword: low byte of the low half, low byte of the high half.
        return (word & 0xFF) | (((word >> 16) & 0xFF) << 8)
    if pattern == 6:
        return word & 0xFF
    return word & 0xFFFFFFFF


def word_from_payload(payload: int, pattern: int) -> int:
    """Rebuild a 32-bit word from its pattern and payload."""
    if pattern == 0:
        return 0
    if pattern == 1:
        value = payload & 0xF
        return value | 0xFFFFFFF0 if value & 0x8 else value
    if pattern == 2:
        value = payload & 0xFF
        return value | 0xFFFFFF00 if value & 0x80 else value
    if pattern == 3:
        value = payload & 0xFFFF
        return value | 0xFFFF0000 if value & 0x8000 else value
    if pattern == 4:
        return (payload & 0xFFFF) << 16
    if pattern == 5:
        low = payload & 0xFF
        high = (payload >> 8) & 0xFF
        low_ext = low | 0xFF00 if low & 0x80 else low
        high_ext = high | 0xFF00 if high & 0x80 else high
        return low_ext | (high_ext << 16)
    if pattern == 6:
        byte = payload & 0xFF
        return byte | (byte << 8) | (byte << 16) | (byte << 24)
    return payload & 0xFFFFFFFF


@dataclass(frozen=True)
class FPCCompressor(Compressor):
    """Frequent Pattern Compression over sixteen 32-bit words per line."""

    name: str = "fpc"

    @staticmethod
    def classify(batch: LineBatch) -> np.ndarray:
        """The ``(n, 16)`` FPC pattern (prefix value) of every 32-bit word."""
        return classify_words32(line_to_words32(batch.words))

    @staticmethod
    def sizes_from_patterns(patterns: np.ndarray) -> np.ndarray:
        """Compressed sizes from precomputed :meth:`classify` patterns."""
        payload = np.asarray(PATTERN_PAYLOAD_BITS, dtype=np.int64)[patterns]
        return (payload + PREFIX_BITS).sum(axis=-1, dtype=np.int64)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        """Compressed size of every line: 3-bit prefix + payload per 32-bit word."""
        return self.sizes_from_patterns(self.classify(batch))

    def compress_batch(
        self,
        batch: LineBatch,
        validated: bool = False,
        patterns: Optional[np.ndarray] = None,
    ) -> PackedBits:
        """Vectorised FPC: classify, gather payloads, lay the ragged fields out.

        Every 32-bit word contributes one ``prefix | payload << 3`` field
        whose width depends on its pattern; :func:`~repro.compression.kernels
        .lay_fields` lays the fields back to back exactly like the scalar
        cursor loop.  ``patterns`` takes the caller's :meth:`classify` result
        so the batch is classified once.  FPC applies to every line, so
        ``validated`` is irrelevant here.
        """
        words32 = line_to_words32(batch.words)
        if patterns is None:
            patterns = classify_words32(words32)
        payloads = payloads_for_patterns(words32, patterns).astype(np.uint64)
        fields = patterns.astype(np.uint64) | (payloads << np.uint64(PREFIX_BITS))
        widths = PREFIX_BITS + np.asarray(PATTERN_PAYLOAD_BITS, dtype=np.int64)[patterns]
        return lay_fields(fields, widths, self.name)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        """Vectorised FPC decode: one cursor per line, sixteen lockstep steps."""
        n = len(packed)
        if n == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        lengths = packed.lengths[:, None]
        payload_widths = np.asarray(PATTERN_PAYLOAD_BITS, dtype=np.int64)
        cursor = np.zeros((n, 1), dtype=np.int64)
        words32 = np.zeros((n, WORDS32_PER_LINE), dtype=np.uint32)
        widest = PREFIX_BITS + max(PATTERN_PAYLOAD_BITS)
        for i in range(WORDS32_PER_LINE):
            # One read covers the prefix and the widest payload;
            # words_from_payloads keeps only the bits the pattern owns.
            field = take_fields(packed.words, cursor, widest)
            patterns = (field & np.uint64(7)).astype(np.uint8)
            widths = PREFIX_BITS + payload_widths[patterns]
            if bool(np.any(cursor + widths > lengths)):
                raise CompressionError("truncated FPC stream")
            cursor = cursor + widths
            payloads = (field[:, 0] >> np.uint64(PREFIX_BITS)).astype(np.uint32)
            words32[:, i] = words_from_payloads(payloads, patterns[:, 0])
        return words32_to_line(words32)
