"""FPC+BDI: pick the better of FPC and BDI per line.

The DIN baseline [Jiang et al., DSN 2014] compresses memory lines with the
combination of FPC and BDI and only encodes the lines that shrink to at most
369 bits; the paper's Figure 4 reports the coverage of this combination at
about 30 % of memory lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.errors import CompressionError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE, WORDS_PER_LINE
from .base import Compressor
from .bdi import BDICompressor
from .fpc import FPCCompressor
from .kernels import PackedBits, merge_rows, prepend_field, split_field

#: Compression budget (bits) that DIN requires to apply its 3-to-4-bit expansion.
DIN_COMPRESSION_BUDGET_BITS = 369


@dataclass(frozen=True)
class FPCBDICompressor(Compressor):
    """Best-of FPC and BDI, with a 1-bit selector tag on the compressed stream."""

    name: str = "fpc+bdi"
    fpc: FPCCompressor = field(default_factory=FPCCompressor)
    bdi: BDICompressor = field(default_factory=BDICompressor)

    def classify(self, batch: LineBatch) -> Tuple[np.ndarray, np.ndarray]:
        """The FPC patterns and BDI variant sizes every size and stream derive from."""
        return self.fpc.classify(batch), self.bdi.variant_sizes(batch)

    def sizes_from_classes(self, patterns: np.ndarray, variant_sizes: np.ndarray) -> np.ndarray:
        """Per-line sizes (incl. the selector bit) from a :meth:`classify` result."""
        best = np.minimum(
            self.fpc.sizes_from_patterns(patterns), self.bdi.sizes_from_variants(variant_sizes)
        )
        return np.minimum(best + 1, BITS_PER_LINE).astype(np.int64)

    def sizes_bits(self, batch: LineBatch) -> np.ndarray:
        """Per-line minimum of the FPC and BDI sizes (plus the selector bit)."""
        return self.sizes_from_classes(*self.classify(batch))

    def compress_batch(
        self,
        batch: LineBatch,
        validated: bool = False,
        patterns: Optional[np.ndarray] = None,
        variant_sizes: Optional[np.ndarray] = None,
    ) -> PackedBits:
        """Vectorised best-of: classify once, compress each sub-batch once.

        ``patterns`` and ``variant_sizes`` take the caller's :meth:`classify`
        result; the FPC and BDI kernels receive their rows' slices of it, so
        no line is classified twice.
        """
        if patterns is None:
            patterns = self.fpc.classify(batch)
        if variant_sizes is None:
            variant_sizes = self.bdi.variant_sizes(batch)
        fpc_sizes = self.fpc.sizes_from_patterns(patterns)
        bdi_sizes = self.bdi.sizes_from_variants(variant_sizes)
        use_bdi = (bdi_sizes < fpc_sizes) & (bdi_sizes < BITS_PER_LINE)
        fpc_rows, bdi_rows = np.nonzero(~use_bdi)[0], np.nonzero(use_bdi)[0]
        parts = []
        if fpc_rows.size:
            sub = LineBatch(batch.words[fpc_rows])
            parts.append((fpc_rows, self.fpc.compress_batch(sub, patterns=patterns[fpc_rows])))
        if bdi_rows.size:
            sub = LineBatch(batch.words[bdi_rows])
            parts.append(
                (bdi_rows, self.bdi.compress_batch(sub, variant_sizes=variant_sizes[:, bdi_rows]))
            )
        inner = merge_rows(len(batch), parts, self.name)
        return prepend_field(inner, use_bdi, 1)

    def decompress_batch(self, packed: PackedBits) -> np.ndarray:
        if np.any(packed.lengths < 1):
            raise CompressionError("empty FPC+BDI stream")
        if len(packed) == 0:
            return np.zeros((0, WORDS_PER_LINE), dtype=np.uint64)
        selector, inner = split_field(packed, 1)
        words = np.zeros((len(packed), WORDS_PER_LINE), dtype=np.uint64)
        for value, compressor in ((0, self.fpc), (1, self.bdi)):
            rows = np.nonzero(selector == value)[0]
            if rows.size:
                words[rows] = compressor.decompress_batch(inner.rows(rows))
        return words
