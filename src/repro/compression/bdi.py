"""Base-Delta-Immediate (BDI) compression [Pekhimenko et al., PACT 2012].

BDI exploits the low dynamic range of values within a memory line: the line is
viewed as an array of fixed-size elements (8-, 4- or 2-byte) and stored as one
*base* element plus narrow *deltas*.  Several (base size, delta size) variants
are tried and the smallest representation wins.  Two degenerate variants --
the all-zero line and the line made of one repeated 8-byte value -- are also
part of the family.

This module exposes each variant as an individual :class:`Compressor` (the
Coverage-Oriented Compression bank of the paper treats every variant as its
own compressor) plus :class:`BDICompressor`, the conventional "best variant
wins" front-end used in the FPC+BDI comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE, BYTES_PER_LINE, WORDS_PER_LINE
from .base import Compressor
from .kernels import (
    PackedBits,
    lay_fields,
    merge_rows,
    prepend_field,
    split_field,
    take_fields,
)


def line_elements(words: np.ndarray, element_bytes: int) -> np.ndarray:
    """View line words as an array of unsigned elements of ``element_bytes`` bytes."""
    words = np.asarray(words, dtype=np.uint64)
    if element_bytes == 8:
        return words
    if element_bytes == 4:
        low = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        high = (words >> np.uint64(32)).astype(np.uint32)
        return np.stack([low, high], axis=-1).reshape(
            words.shape[:-1] + (words.shape[-1] * 2,)
        )
    if element_bytes == 2:
        parts = [
            ((words >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.uint16) for i in range(4)
        ]
        return np.stack(parts, axis=-1).reshape(
            words.shape[:-1] + (words.shape[-1] * 4,)
        )
    raise CompressionError(f"unsupported element size: {element_bytes} bytes")


def elements_to_line(elements: np.ndarray, element_bytes: int) -> np.ndarray:
    """Rebuild 64-bit line words from an array of unsigned elements."""
    elements = np.asarray(elements, dtype=np.uint64)
    per_word = 8 // element_bytes
    grouped = elements.reshape(elements.shape[:-1] + (WORDS_PER_LINE, per_word))
    shifts = (np.arange(per_word, dtype=np.uint64) * np.uint64(8 * element_bytes))
    return (grouped << shifts).sum(axis=-1, dtype=np.uint64)


def _signed_dtype(element_bytes: int) -> np.dtype:
    return {8: np.int64, 4: np.int32, 2: np.int16}[element_bytes]


@dataclass(frozen=True)
class ZeroLineCompressor(Compressor):
    """Degenerate BDI variant: the all-zero line compresses to zero bits."""

    name: str = "zero-line"

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        zero = np.all(batch.words == 0, axis=1)
        return np.where(zero, 0, BITS_PER_LINE).astype(np.int64)

    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        if not validated and bool(np.any(batch.words != 0)):
            raise CompressionError("line is not all zero")
        return PackedBits(
            words=np.zeros((len(batch), 0), dtype=np.uint64),
            lengths=np.zeros(len(batch), dtype=np.int64),
            compressor=self.name,
        )

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        return np.zeros((len(packed), WORDS_PER_LINE), dtype=np.uint64)


@dataclass(frozen=True)
class RepeatedValueCompressor(Compressor):
    """Degenerate BDI variant: the line is a single repeated 8-byte value."""

    name: str = "repeated-8byte"

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        words = batch.words
        repeated = np.all(words == words[:, :1], axis=1)
        return np.where(repeated, 64, BITS_PER_LINE).astype(np.int64)

    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        words = batch.words
        if not validated and bool(np.any(words != words[:, :1])):
            raise CompressionError("line is not a repeated 8-byte value")
        return PackedBits(
            words=words[:, :1].copy(),
            lengths=np.full(len(batch), 64, dtype=np.int64),
            compressor=self.name,
        )

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < 64):
            raise CompressionError("repeated-value stream must be at least 64 bits")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        return np.repeat(packed.words[:, :1], WORDS_PER_LINE, axis=1)


@dataclass(frozen=True)
class BDIVariant(Compressor):
    """One (base size, delta size) member of the BDI family.

    The base is the first element of the line; every element is stored as a
    signed delta of ``delta_bytes`` bytes relative to the base (arithmetic is
    modular, so reconstruction is exact whenever the wrapped delta fits).
    """

    base_bytes: int = 8
    delta_bytes: int = 1

    def __post_init__(self) -> None:
        if self.base_bytes not in (2, 4, 8):
            raise CompressionError("base_bytes must be 2, 4 or 8")
        if self.delta_bytes >= self.base_bytes or self.delta_bytes not in (1, 2, 4):
            raise CompressionError("delta_bytes must be 1, 2 or 4 and smaller than base_bytes")
        object.__setattr__(self, "name", f"bdi-b{self.base_bytes}d{self.delta_bytes}")

    @property
    def elements_per_line(self) -> int:
        """Number of base-sized elements in a 512-bit line."""
        return BYTES_PER_LINE // self.base_bytes

    @property
    def compressed_bits(self) -> int:
        """Size of the compressed representation when the variant applies."""
        return self.base_bytes * 8 + self.elements_per_line * self.delta_bytes * 8

    def _deltas(self, elements: np.ndarray) -> np.ndarray:
        base = elements[..., :1]
        wrapped = (elements - base).astype(elements.dtype)
        return wrapped.astype(_signed_dtype(self.base_bytes))

    def fits(self, batch: LineBatch) -> np.ndarray:
        """Per-line test: do all wrapped deltas fit in ``delta_bytes`` bytes?"""
        deltas = self._deltas(line_elements(batch.words, self.base_bytes))
        limit = 1 << (8 * self.delta_bytes - 1)
        return np.all((deltas >= -limit) & (deltas < limit), axis=-1)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        return np.where(self.fits(batch), self.compressed_bits, BITS_PER_LINE).astype(
            np.int64
        )

    @property
    def field_widths(self) -> np.ndarray:
        """Stream layout: the base, then one delta per element."""
        return np.array(
            [8 * self.base_bytes] + [8 * self.delta_bytes] * self.elements_per_line,
            dtype=np.int64,
        )

    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        if not validated and not bool(self.fits(batch).all()):
            raise CompressionError(f"line does not fit {self.name}")
        elements = line_elements(batch.words, self.base_bytes)
        fields = np.concatenate(
            [elements[:, :1].astype(np.uint64), self._deltas(elements).astype(np.uint64)], axis=1
        )
        return lay_fields(fields, self.field_widths, self.name)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        short = packed.lengths[packed.lengths < self.compressed_bits]
        if short.size:
            raise CompressionError(
                f"stream length {int(short[0])} is shorter than {self.compressed_bits}"
            )
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        widths = self.field_widths
        fields = take_fields(packed.words, np.cumsum(widths) - widths, widths)
        base, raw = fields[:, :1], fields[:, 1:]
        delta_width = 8 * self.delta_bytes
        sign_bit = np.uint64(1 << (delta_width - 1))
        full = np.uint64(1 << delta_width)
        # Modular arithmetic: adding (raw - 2^w) mod 2^64 reverses the wrap.
        delta = np.where((raw & sign_bit).astype(bool), raw - full, raw)
        element_mask = np.uint64((1 << (8 * self.base_bytes)) - 1)
        elements = (base + delta) & element_mask if self.base_bytes < 8 else base + delta
        return elements_to_line(elements, self.base_bytes)


#: The six delta variants of the standard BDI family.
STANDARD_BDI_VARIANTS: Tuple[BDIVariant, ...] = (
    BDIVariant(8, 1),
    BDIVariant(8, 2),
    BDIVariant(8, 4),
    BDIVariant(4, 1),
    BDIVariant(4, 2),
    BDIVariant(2, 1),
)


@dataclass(frozen=True)
class BDICompressor(Compressor):
    """Best-of-family BDI compressor (zero, repeated value, and delta variants)."""

    name: str = "bdi"
    variants: Tuple[Compressor, ...] = field(
        default_factory=lambda: (ZeroLineCompressor(), RepeatedValueCompressor()) + STANDARD_BDI_VARIANTS
    )
    #: Encoding-tag overhead added to every compressed line, in bits.
    tag_bits: int = 4

    def variant_sizes(self, batch: LineBatch) -> np.ndarray:
        """Per-variant compressed sizes, shape ``(variants, lines)``."""
        return np.stack([v.sizes_bits(batch) for v in self.variants])

    def sizes_from_variants(self, variant_sizes: np.ndarray) -> np.ndarray:
        """Per-line sizes (incl. tag) from a precomputed :meth:`variant_sizes` matrix."""
        best = np.asarray(variant_sizes).min(axis=0)
        return np.where(best < BITS_PER_LINE, best + self.tag_bits, BITS_PER_LINE).astype(np.int64)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        return self.sizes_from_variants(self.variant_sizes(batch))

    def compress_batch(
        self,
        batch: LineBatch,
        validated: bool = False,
        variant_sizes: Optional[np.ndarray] = None,
    ) -> PackedBits:
        """Vectorised best-of-family compression.

        The per-variant classification runs once for the whole batch (or
        comes from the caller as ``variant_sizes``); each variant's kernel
        then compresses only the lines that chose it, with the
        classification marked validated so it is never re-run per line.
        """
        sizes = self.variant_sizes(batch) if variant_sizes is None else variant_sizes
        choice = sizes.argmin(axis=0)
        if np.any(sizes.min(axis=0) >= BITS_PER_LINE):
            raise CompressionError("line is not BDI-compressible")
        parts = []
        for index, variant in enumerate(self.variants):
            rows = np.nonzero(choice == index)[0]
            if rows.size:
                parts.append(
                    (rows, variant.compress_batch(LineBatch(batch.words[rows]), validated=True))
                )
        inner = merge_rows(len(batch), parts, self.name)
        return prepend_field(inner, choice, self.tag_bits)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < self.tag_bits):
            raise CompressionError("truncated BDI stream")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        tags, inner = split_field(packed, self.tag_bits)
        tags = tags.astype(np.int64)
        bad = tags[tags >= len(self.variants)]
        if bad.size:
            raise CompressionError(f"unknown BDI variant tag {int(bad[0])}")
        words = np.zeros((len(packed), WORDS_PER_LINE), dtype=np.uint64)
        for index, variant in enumerate(self.variants):
            rows = np.nonzero(tags == index)[0]
            if rows.size:
                words[rows] = variant.decompress_batch(inner.rows(rows))
        return words
