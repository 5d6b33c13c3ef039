"""Word-Level Compression (WLC) -- the paper's proposed light compression.

WLC inspects each 64-bit word of a 512-bit memory line.  If the ``k`` most
significant bits of *every* word are identical (all zeros or all ones), the
line is *compressible*: the top ``k-1`` bits of each word are redundant (they
can be regenerated by sign-extending bit ``64-k``) and are *reclaimed* to hold
the auxiliary bits of a fine-grain coset encoding.  Crucially the remaining
data bits stay in their original positions, which preserves the bit locality
that differential write depends on -- this is the property that heavier
compressors (FPC+BDI, COC) lack.

For the paper's default WLCRC-16 configuration ``k = 6``: five bits per word
are reclaimed (the group-selector bit plus four per-block coset bits) and more
than 91 % of memory lines are compressible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE, BITS_PER_WORD, WORDS_PER_LINE
from .base import Compressor
from .kernels import PackedBits, lay_fields, take_fields


def msb_run_compressible(words: np.ndarray, k: int) -> np.ndarray:
    """Per-word test: are the top ``k`` bits of each 64-bit word identical?

    Parameters
    ----------
    words:
        ``uint64`` array of any shape.
    k:
        Number of most-significant bits that must be identical (``2..64``).

    Returns
    -------
    numpy.ndarray
        Boolean array of the same shape as ``words``.
    """
    if not 2 <= k <= BITS_PER_WORD:
        raise CompressionError(f"k must be in [2, {BITS_PER_WORD}], got {k}")
    words = np.asarray(words, dtype=np.uint64)
    top = words >> np.uint64(BITS_PER_WORD - k)
    all_ones = np.uint64((1 << k) - 1)
    return (top == 0) | (top == all_ones)


@dataclass(frozen=True)
class WLCCompressor(Compressor):
    """Word-Level Compression with a ``k``-MSB redundancy test.

    Parameters
    ----------
    k:
        Number of most-significant bits per word that must be identical for
        the word (and hence the line) to be compressible.  ``k - 1`` bits per
        word are reclaimed.
    """

    k: int = 6

    def __post_init__(self) -> None:
        if not 2 <= self.k <= BITS_PER_WORD:
            raise CompressionError(f"k must be in [2, {BITS_PER_WORD}], got {self.k}")
        object.__setattr__(self, "name", f"wlc-{self.k}msb")

    # ------------------------------------------------------------------ #
    # Derived geometry
    # ------------------------------------------------------------------ #
    @property
    def reclaimed_bits_per_word(self) -> int:
        """Number of bits per word freed for auxiliary data."""
        return self.k - 1

    @property
    def reclaimed_bits_per_line(self) -> int:
        """Number of bits per 512-bit line freed for auxiliary data."""
        return self.reclaimed_bits_per_word * WORDS_PER_LINE

    @property
    def sign_bit_index(self) -> int:
        """Index of the bit whose value regenerates the reclaimed bits."""
        return BITS_PER_WORD - self.k

    # ------------------------------------------------------------------ #
    # Compressibility
    # ------------------------------------------------------------------ #
    def word_compressible(self, words: np.ndarray) -> np.ndarray:
        """Per-word compressibility test (top ``k`` bits identical)."""
        return msb_run_compressible(words, self.k)

    def line_compressible(self, batch: LineBatch) -> np.ndarray:
        """Per-line compressibility: every word of the line must be compressible."""
        return self.word_compressible(batch.words).all(axis=1)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        """Compressed sizes: ``512 - reclaimed`` for compressible lines, 512 otherwise."""
        compressible = self.line_compressible(batch)
        sizes = np.full(len(batch), BITS_PER_LINE, dtype=np.int64)
        sizes[compressible] = BITS_PER_LINE - self.reclaimed_bits_per_line
        return sizes

    # ------------------------------------------------------------------ #
    # Word-level transforms used by the WLC-based encoders
    # ------------------------------------------------------------------ #
    def clear_reclaimed(self, words: np.ndarray) -> np.ndarray:
        """Zero the reclaimed (top ``k-1``) bits of every word.

        The result is the canonical *compressed* word: data bits in place and
        room for auxiliary bits at the top.  Only meaningful for words that
        pass :meth:`word_compressible`.
        """
        words = np.asarray(words, dtype=np.uint64)
        mask = np.uint64((1 << (BITS_PER_WORD - self.reclaimed_bits_per_word)) - 1)
        return words & mask

    def insert_reclaimed(self, words: np.ndarray, aux_values: np.ndarray) -> np.ndarray:
        """Place auxiliary values into the reclaimed top bits of each word."""
        words = np.asarray(words, dtype=np.uint64)
        aux_values = np.asarray(aux_values, dtype=np.uint64)
        limit = np.uint64(1 << self.reclaimed_bits_per_word)
        if np.any(aux_values >= limit):
            raise CompressionError(
                f"aux values must fit in {self.reclaimed_bits_per_word} bits"
            )
        shift = np.uint64(BITS_PER_WORD - self.reclaimed_bits_per_word)
        return self.clear_reclaimed(words) | (aux_values << shift)

    def extract_reclaimed(self, words: np.ndarray) -> np.ndarray:
        """Read the auxiliary values stored in the reclaimed top bits."""
        words = np.asarray(words, dtype=np.uint64)
        shift = np.uint64(BITS_PER_WORD - self.reclaimed_bits_per_word)
        return words >> shift

    def sign_extend(self, words: np.ndarray) -> np.ndarray:
        """Regenerate the reclaimed bits by extending the sign bit (decompression)."""
        words = np.asarray(words, dtype=np.uint64)
        sign = (words >> np.uint64(self.sign_bit_index)) & np.uint64(1)
        top_mask = np.uint64(
            ((1 << self.reclaimed_bits_per_word) - 1) << (BITS_PER_WORD - self.reclaimed_bits_per_word)
        )
        cleared = self.clear_reclaimed(words)
        return np.where(sign.astype(bool), cleared | top_mask, cleared)

    # ------------------------------------------------------------------ #
    # Bit-exact single-line interface
    # ------------------------------------------------------------------ #
    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        """Keep-bit packing: drop the reclaimed top bits of every word at once."""
        if not validated and not bool(self.word_compressible(batch.words).all()):
            raise CompressionError("line is not WLC-compressible at this k")
        keep = BITS_PER_WORD - self.reclaimed_bits_per_word
        return lay_fields(batch.words, np.full(WORDS_PER_LINE, keep), self.name)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        """Rebuild the lines by sign-extending each truncated word."""
        keep = BITS_PER_WORD - self.reclaimed_bits_per_word
        if np.any(packed.lengths < keep * WORDS_PER_LINE):
            raise CompressionError("compressed stream is too short")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        cursors = keep * np.arange(WORDS_PER_LINE, dtype=np.int64)
        return self.sign_extend(take_fields(packed.words, cursors, keep))
