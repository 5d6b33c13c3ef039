"""Compressor interface shared by all line-compression substrates.

A compressor operates on 512-bit memory lines.  Three views are exposed:

* a **vectorised size query** (:meth:`Compressor.sizes_bits`) that returns the
  compressed size of every line of a batch in bits -- this is what the
  encoding schemes use to decide whether a line can host auxiliary bits;
* the **batch kernels** (:meth:`Compressor.compress_batch` /
  :meth:`Compressor.decompress_batch`) that produce and read the actual
  compressed bit streams of a whole batch as packed words
  (:class:`~repro.compression.kernels.PackedBits`).  Schemes whose memory
  layout depends on the compressed stream (DIN, COC+4cosets) store these
  streams, which is what lets the evaluation capture the loss of bit
  locality those schemes suffer under differential write; and
* a **single-line path** (:meth:`Compressor.compress_line` /
  :meth:`Compressor.decompress_line`) over a bit array, a thin wrapper
  around the batch kernels kept for tests and one-off inspection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE
from .kernels import PackedBits


@dataclass(frozen=True)
class CompressedLine:
    """Bit-exact compressed representation of a single memory line.

    Attributes
    ----------
    bits:
        ``uint8`` array of the compressed bit stream (values 0/1), LSB first.
    compressor:
        Name of the compressor that produced the stream (needed by banks of
        compressors such as COC to decompress).
    """

    bits: np.ndarray
    compressor: str

    @property
    def size_bits(self) -> int:
        """Length of the compressed stream in bits."""
        return int(self.bits.shape[-1])


class Compressor(ABC):
    """Base class of all memory-line compressors.

    A subclass implements :meth:`sizes_bits` and either the batch pair
    (:meth:`compress_batch` / :meth:`decompress_batch`, as every built-in
    compressor does) or the single-line pair; the base class derives the
    other pair from it.
    """

    #: Short identifier used in reports and compressed-line tags.
    name: str = "compressor"

    @abstractmethod
    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        """Compressed size in bits of every line of ``batch`` (vectorised)."""

    def compress_line(self, words: np.ndarray) -> CompressedLine:
        """Compress a single line given as an ``(8,)`` ``uint64`` array."""
        batch = LineBatch(np.asarray(words, dtype=np.uint64).reshape(1, -1))
        return self.compress_batch(batch).line(0)

    def decompress_line(self, compressed: CompressedLine) -> np.ndarray:
        """Recover the original ``(8,)`` ``uint64`` line from a compressed stream."""
        return self.decompress_batch(PackedBits.from_streams([compressed.bits], self.name))[0]

    # ------------------------------------------------------------------ #
    # Batch kernels
    # ------------------------------------------------------------------ #
    def compress_batch(self, batch: LineBatch, validated: bool = False) -> PackedBits:
        """Compress every line of ``batch`` into one :class:`PackedBits`.

        Stream ``i`` is bit-identical to ``compress_line(batch.words[i])``.
        ``validated=True`` promises the caller already classified the batch
        (every line fits this compressor), letting kernels with a ``fits``
        test skip re-running it -- the pre-validated entry point the encoders
        use after their own ``sizes_bits`` pass.

        Every built-in compressor overrides this with a vectorised kernel;
        the base implementation is the scalar loop, kept as the contract
        reference and as the fallback for third-party subclasses.
        """
        return PackedBits.from_streams(
            [self.compress_line(words).bits for words in batch.words], self.name
        )

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        """Recover the ``(n, 8)`` ``uint64`` lines of a packed batch."""
        return np.stack(
            [self.decompress_line(stream) for stream in packed.lines()]
        ) if len(packed) else np.zeros((0, 8), dtype=np.uint64)

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #
    def compressible(self, batch: LineBatch, budget_bits: int) -> np.ndarray:
        """Boolean mask of lines whose compressed size fits within ``budget_bits``."""
        if budget_bits <= 0 or budget_bits > BITS_PER_LINE:
            raise CompressionError(f"budget_bits must be in (0, {BITS_PER_LINE}]")
        return self.sizes_bits(batch) <= budget_bits

    def coverage(self, batch: LineBatch, budget_bits: int) -> float:
        """Fraction of lines of ``batch`` compressible within ``budget_bits``."""
        if len(batch) == 0:
            return 0.0
        return float(self.compressible(batch, budget_bits).mean())

    def roundtrip(self, words: np.ndarray) -> np.ndarray:
        """Compress then decompress a single line (used by tests)."""
        return self.decompress_line(self.compress_line(words))
