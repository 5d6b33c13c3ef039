"""Write-encoding schemes: the paper's WLCRC proposal and every baseline."""

from .base import (
    EncodedBatch,
    WriteEncoder,
    candidate_costs,
    cost_index,
    pack_bits_to_states,
    unpack_states_to_bits,
    winner_bytes,
)
from .baseline import BaselineEncoder
from .coc_cosets import COCFourCosetsEncoder
from .din import DINEncoder, build_din_mapping
from .flipmin import FlipMinEncoder
from .fnw import FNWEncoder
from .ncosets import (
    NCosetsEncoder,
    PairCellAuxCodec,
    SingleCellAuxCodec,
    make_four_cosets,
    make_six_cosets,
    make_three_cosets,
)
from .registry import (
    DEFAULT_ENDURANCE_THRESHOLD,
    FIGURE8_SCHEMES,
    available_schemes,
    make_scheme,
)
from .restricted import RestrictedCosetEncoder
from .wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE, WLCWordEncoderBase
from .wlc_cosets import WLCNCosetsEncoder, make_wlc_four_cosets, make_wlc_three_cosets
from .wlcrc import RECLAIMED_BITS_BY_GRANULARITY, WLCRCEncoder

__all__ = [
    "BaselineEncoder",
    "COCFourCosetsEncoder",
    "DEFAULT_ENDURANCE_THRESHOLD",
    "DINEncoder",
    "EncodedBatch",
    "FIGURE8_SCHEMES",
    "FLAG_COMPRESSED_STATE",
    "FLAG_RAW_STATE",
    "FlipMinEncoder",
    "FNWEncoder",
    "NCosetsEncoder",
    "PairCellAuxCodec",
    "RECLAIMED_BITS_BY_GRANULARITY",
    "RestrictedCosetEncoder",
    "SingleCellAuxCodec",
    "WLCNCosetsEncoder",
    "WLCRCEncoder",
    "WLCWordEncoderBase",
    "WriteEncoder",
    "available_schemes",
    "build_din_mapping",
    "candidate_costs",
    "cost_index",
    "make_four_cosets",
    "make_scheme",
    "make_six_cosets",
    "make_three_cosets",
    "make_wlc_four_cosets",
    "make_wlc_three_cosets",
    "pack_bits_to_states",
    "unpack_states_to_bits",
    "winner_bytes",
]
