"""Memory-line compression substrates: WLC, FPC, BDI, FPC+BDI and COC."""

from .base import CompressedLine, Compressor, pack_bits_lsb_first, unpack_bits_lsb_first
from .kernels import (
    PackedBits,
    compact_segments,
    hstack_bits,
    pack_fields,
    unpack_fields,
)
from .bdi import (
    BDICompressor,
    BDIVariant,
    RepeatedValueCompressor,
    STANDARD_BDI_VARIANTS,
    ZeroLineCompressor,
    elements_to_line,
    line_elements,
)
from .coc import (
    COC_BUDGET_16BIT,
    COC_BUDGET_32BIT,
    COCCompressor,
    RawLineCompressor,
    WordDeltaCompressor,
    default_coc_members,
)
from .fpc import FPCCompressor, classify_words32, line_to_words32, words32_to_line
from .fpc_bdi import DIN_COMPRESSION_BUDGET_BITS, FPCBDICompressor
from .wlc import WLCCompressor, msb_run_compressible

__all__ = [
    "BDICompressor",
    "BDIVariant",
    "COC_BUDGET_16BIT",
    "COC_BUDGET_32BIT",
    "COCCompressor",
    "CompressedLine",
    "Compressor",
    "DIN_COMPRESSION_BUDGET_BITS",
    "FPCBDICompressor",
    "FPCCompressor",
    "PackedBits",
    "RawLineCompressor",
    "RepeatedValueCompressor",
    "STANDARD_BDI_VARIANTS",
    "WLCCompressor",
    "WordDeltaCompressor",
    "ZeroLineCompressor",
    "classify_words32",
    "compact_segments",
    "default_coc_members",
    "elements_to_line",
    "hstack_bits",
    "line_elements",
    "line_to_words32",
    "msb_run_compressible",
    "pack_bits_lsb_first",
    "pack_fields",
    "unpack_bits_lsb_first",
    "unpack_fields",
    "words32_to_line",
]
