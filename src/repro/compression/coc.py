"""Coverage-Oriented Compression (COC) [Kim et al., SC 2015].

COC maximises the *fraction of compressible lines* rather than the compression
ratio: it runs a large bank of simple variable-length compressors and keeps
whichever one succeeds with the smallest output.  The paper uses COC as the
compression front-end of the ``COC+4cosets`` baseline: a line compressed to at
most 448 bits hosts the auxiliary bits of 16-bit-granularity coset coding, a
line compressed to at most 480 bits hosts 32-bit-granularity auxiliary bits,
and everything else is written raw.

Because every COC member re-packs the line into a dense variable-length
stream, the encoded bits of consecutive writes to the same address rarely line
up -- which is exactly the property (loss of bit locality under differential
write) that makes COC+4cosets weaker than WLC-based schemes in the paper.
The bank implemented here contains eleven members: the all-zero line, the
repeated 8-byte value, the six standard BDI (base, delta) variants, FPC, a
word-level delta compressor and the raw fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE, WORDS_PER_LINE
from .base import Compressor
from .bdi import RepeatedValueCompressor, STANDARD_BDI_VARIANTS, ZeroLineCompressor
from .fpc import FPCCompressor
from .kernels import (
    PackedBits,
    lay_fields,
    merge_rows,
    prepend_field,
    split_field,
    take_fields,
)

#: Compression budget for 16-bit-granularity COC+4cosets encoding.
COC_BUDGET_16BIT = 448
#: Compression budget for 32-bit-granularity COC+4cosets encoding.
COC_BUDGET_32BIT = 480


@dataclass(frozen=True)
class RawLineCompressor(Compressor):
    """Fallback member that stores the line verbatim (512 bits)."""

    name: str = "raw"

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        return np.full(len(batch), BITS_PER_LINE, dtype=np.int64)

    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        return PackedBits(
            words=batch.words.copy(),
            lengths=np.full(len(batch), BITS_PER_LINE, dtype=np.int64),
            compressor=self.name,
        )

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < BITS_PER_LINE):
            raise CompressionError("raw stream must be at least 512 bits")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        return packed.words[:, :WORDS_PER_LINE].copy()


@dataclass(frozen=True)
class WordDeltaCompressor(Compressor):
    """Member that stores word 0 verbatim and each later word as a 16-bit delta."""

    name: str = "word-delta16"
    delta_bits: int = 16

    @property
    def compressed_bits(self) -> int:
        """Size when the variant applies: one full word plus seven deltas."""
        return 64 + (WORDS_PER_LINE - 1) * self.delta_bits

    def fits(self, batch: LineBatch) -> np.ndarray:
        """All wrapped word-to-word deltas against word 0 fit in ``delta_bits``."""
        words = batch.words
        deltas = (words[:, 1:] - words[:, :1]).astype(np.int64)
        limit = 1 << (self.delta_bits - 1)
        return np.all((deltas >= -limit) & (deltas < limit), axis=1)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        return np.where(self.fits(batch), self.compressed_bits, BITS_PER_LINE).astype(
            np.int64
        )

    @property
    def field_widths(self) -> np.ndarray:
        """Stream layout: word 0, then one delta per later word."""
        return np.array([64] + [self.delta_bits] * (WORDS_PER_LINE - 1), dtype=np.int64)

    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        if not validated and not bool(self.fits(batch).all()):
            raise CompressionError("line does not fit word-delta compression")
        words = batch.words
        fields = np.concatenate([words[:, :1], words[:, 1:] - words[:, :1]], axis=1)
        return lay_fields(fields, self.field_widths, self.name)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < self.compressed_bits):
            raise CompressionError("word-delta stream is too short")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        widths = self.field_widths
        fields = take_fields(packed.words, np.cumsum(widths) - widths, widths)
        base, raw = fields[:, :1], fields[:, 1:]
        sign = np.uint64(1 << (self.delta_bits - 1))
        full = np.uint64(1 << self.delta_bits)
        delta = np.where((raw & sign).astype(bool), raw - full, raw)
        return np.concatenate([base, base + delta], axis=1)


def default_coc_members() -> Tuple[Compressor, ...]:
    """The default COC bank: 11 member compressors including the raw fallback."""
    return (
        ZeroLineCompressor(),
        RepeatedValueCompressor(),
    ) + STANDARD_BDI_VARIANTS + (
        FPCCompressor(),
        WordDeltaCompressor(),
        RawLineCompressor(),
    )


@dataclass(frozen=True)
class COCCompressor(Compressor):
    """Coverage-Oriented Compression: best of a bank of member compressors."""

    name: str = "coc"
    members: Tuple[Compressor, ...] = field(default_factory=default_coc_members)
    #: Bits used to tag which member compressed the line.
    tag_bits: int = 5

    def __post_init__(self) -> None:
        if len(self.members) > (1 << self.tag_bits):
            raise CompressionError("too many COC members for the tag width")

    def classify(self, batch: LineBatch) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The :meth:`member_sizes` matrix and the FPC patterns it was sized from.

        The patterns are ``None`` when the bank has no FPC member.
        """
        patterns = None
        sizes = []
        for member in self.members:
            if isinstance(member, FPCCompressor):
                if patterns is None:
                    patterns = member.classify(batch)
                sizes.append(member.sizes_from_patterns(patterns))
            else:
                sizes.append(member.sizes_bits(batch))
        return np.stack(sizes), patterns

    def member_sizes(self, batch: LineBatch) -> np.ndarray:
        """Matrix of per-member compressed sizes, shape ``(members, lines)``."""
        return self.classify(batch)[0]

    def sizes_from_members(self, member_sizes: np.ndarray) -> np.ndarray:
        """Per-line best size (incl. tag) from a precomputed bank-size matrix."""
        best = np.asarray(member_sizes).min(axis=0)
        return np.minimum(best + self.tag_bits, BITS_PER_LINE).astype(np.int64)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        """Per-line best size across the bank, including the member tag."""
        return self.sizes_from_members(self.member_sizes(batch))

    def best_member(self, words: np.ndarray) -> Tuple[int, Compressor]:
        """Index and instance of the member with the smallest output for one line.

        When no member beats the uncompressed size, the raw fallback is chosen
        (several members report 512 bits to mean "does not apply" and cannot
        actually encode the line).  Batch callers use
        :meth:`compress_batch(member_sizes=...) <compress_batch>` instead,
        which evaluates the bank once for the whole batch.
        """
        sizes = self.member_sizes(LineBatch(np.asarray(words, dtype=np.uint64)[None]))[:, 0]
        index = int(np.argmin(sizes))
        if sizes[index] >= BITS_PER_LINE:
            for fallback_index, member in enumerate(self.members):
                if isinstance(member, RawLineCompressor):
                    return fallback_index, member
        return index, self.members[index]

    def _member_choice(self, member_sizes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`best_member`: per-line member index from the bank sizes."""
        choice = member_sizes.argmin(axis=0)
        no_winner = member_sizes.min(axis=0) >= BITS_PER_LINE
        if np.any(no_winner):
            raw_indexes = [
                index
                for index, member in enumerate(self.members)
                if isinstance(member, RawLineCompressor)
            ]
            if not raw_indexes:
                raise CompressionError(
                    "no COC member can encode the line (bank has no raw fallback)"
                )
            choice = np.where(no_winner, raw_indexes[0], choice)
        return choice.astype(np.int64)

    def compress_batch(
        self,
        batch: LineBatch,
        validated: bool = False,
        member_sizes: Optional[np.ndarray] = None,
        fpc_patterns: Optional[np.ndarray] = None,
    ) -> PackedBits:
        """Vectorised COC: evaluate the bank once, dispatch lines per member.

        ``member_sizes`` accepts a precomputed ``(members, lines)`` matrix
        (e.g. from the caller's compressibility classification) so the bank
        is sized exactly once per batch rather than once per member per line;
        ``fpc_patterns`` (from :meth:`classify`) likewise reaches the FPC
        member, which then does not classify its lines again.
        """
        if member_sizes is None:
            member_sizes, fpc_patterns = self.classify(batch)
        choice = self._member_choice(member_sizes)
        parts = []
        for index, member in enumerate(self.members):
            rows = np.nonzero(choice == index)[0]
            if rows.size == 0:
                continue
            sub = LineBatch(batch.words[rows])
            if isinstance(member, FPCCompressor) and fpc_patterns is not None:
                part = member.compress_batch(sub, validated=True, patterns=fpc_patterns[rows])
            else:
                part = member.compress_batch(sub, validated=True)
            parts.append((rows, part))
        inner = merge_rows(len(batch), parts, self.name)
        return prepend_field(inner, choice, self.tag_bits)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < self.tag_bits):
            raise CompressionError("truncated COC stream")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        tags, inner = split_field(packed, self.tag_bits)
        tags = tags.astype(np.int64)
        bad = tags[tags >= len(self.members)]
        if bad.size:
            raise CompressionError(f"unknown COC member tag {int(bad[0])}")
        words = np.zeros((len(packed), WORDS_PER_LINE), dtype=np.uint64)
        for index, member in enumerate(self.members):
            rows = np.nonzero(tags == index)[0]
            if rows.size:
                words[rows] = member.decompress_batch(inner.rows(rows))
        return words
