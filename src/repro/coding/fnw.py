"""Flip-N-Write (FNW) [Cho & Lee, MICRO 2009], adapted to MLC PCM.

FNW writes either a data block or its bitwise complement, whichever rewrites
fewer (or cheaper) cells, and records the decision in one auxiliary flip bit
per block.  Following the paper's ISO-overhead comparison, the 512-bit line is
partitioned into four 128-bit blocks so that the four flip bits match the two
auxiliary symbols used by FlipMin and 6cosets.  At the symbol level,
complementing a block maps each symbol to its bitwise complement
(``00 <-> 11``, ``01 <-> 10``) before the default symbol-to-state mapping is
applied.
"""

from __future__ import annotations

import numpy as np

from ..core.cosets import C1, C3, DEFAULT_MAPPING, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import SYMBOLS_PER_LINE, complement_symbols, symbol_bytes
from .base import (
    EncodeResult,
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cheapest,
    cost_index,
    every_line_encoded,
    pack_bits_to_states,
    unpack_states_to_bits,
    winner_bytes,
)

#: A block is written as is (the default mapping C1) or complemented: the
#: default state of symbol ``3 - s`` is ``C3[s]``, so complementing is C3.
FNW_CANDIDATES = np.stack([C1, C3])


class FNWEncoder(WriteEncoder):
    """Flip-N-Write at a configurable block granularity (default 128 bits)."""

    def __init__(
        self,
        block_bits: int = 128,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if block_bits % 8 or (SYMBOLS_PER_LINE * 2) % block_bits:
            raise ConfigurationError("block_bits must be a multiple of 8 dividing 512")
        self.block_bits = block_bits
        self.block_cells = block_bits // 2
        self.block_bytes = block_bits // 8
        self.num_blocks = SYMBOLS_PER_LINE // self.block_cells
        self.byte_tables = candidate_byte_tables(FNW_CANDIDATES)
        self.name = f"fnw-{block_bits}"

    @property
    def aux_cells(self) -> int:
        """One flip bit per block, packed two bits per auxiliary cell."""
        return (self.num_blocks + 1) // 2

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        data = symbol_bytes(lines.words)
        index = cost_index(stored, data)
        choice = cheapest(
            candidate_costs(self.energy_model, FNW_CANDIDATES, index, self.block_bytes)
        )  # (n, blocks)
        return every_line_encoded(
            winner_bytes(self.byte_tables, choice, data, self.block_bytes),
            pack_bits_to_states(choice),
        )

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        flip_bits = unpack_states_to_bits(aux_states, self.num_blocks)
        symbols = invert_mapping(DEFAULT_MAPPING)[data_states]
        flip_per_cell = np.repeat(flip_bits, self.block_cells, axis=1).astype(bool)
        symbols = np.where(flip_per_cell, complement_symbols(symbols), symbols)
        return LineBatch.from_symbols(symbols)
