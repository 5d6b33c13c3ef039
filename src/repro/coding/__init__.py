"""Write-encoding schemes: the paper's WLCRC proposal and every baseline."""

from .base import (
    FLAG_COMPRESSED_STATE,
    FLAG_RAW_STATE,
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
from .engines import CosetEncoder, CosetSpec, WLCCosetEncoder
from .flipmin import FlipMinEncoder
from .registry import (
    COSET_SPECS,
    DEFAULT_ENDURANCE_THRESHOLD,
    FIGURE8_SCHEMES,
    available_schemes,
    coset_encoder,
    make_scheme,
)

__all__ = [
    "BaselineEncoder",
    "COCFourCosetsEncoder",
    "COSET_SPECS",
    "CosetEncoder",
    "CosetSpec",
    "DEFAULT_ENDURANCE_THRESHOLD",
    "DINEncoder",
    "EncodedBatch",
    "FIGURE8_SCHEMES",
    "FLAG_COMPRESSED_STATE",
    "FLAG_RAW_STATE",
    "FlipMinEncoder",
    "WLCCosetEncoder",
    "WriteEncoder",
    "available_schemes",
    "build_din_mapping",
    "candidate_costs",
    "coset_encoder",
    "cost_index",
    "make_scheme",
    "pack_bits_to_states",
    "unpack_states_to_bits",
    "winner_bytes",
]
