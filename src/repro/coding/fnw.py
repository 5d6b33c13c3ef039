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

from typing import Tuple

import numpy as np

from ..core.cosets import DEFAULT_BYTE_TABLE, DEFAULT_MAPPING, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    SYMBOLS_PER_LINE,
    complement_symbols,
    pack_state_bytes,
    symbol_bytes,
    unpack_state_bytes,
)
from .base import (
    WriteEncoder,
    block_costs,
    pack_bits_to_states,
    select_block_bytes,
    unpack_states_to_bits,
)


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
        self.name = f"fnw-{block_bits}"

    @property
    def aux_cells(self) -> int:
        """One flip bit per block, packed two bits per auxiliary cell."""
        return (self.num_blocks + 1) // 2

    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        data = symbol_bytes(lines.words)
        stored = pack_state_bytes(stored_states[:, :SYMBOLS_PER_LINE])
        # Complementing every symbol of a byte is complementing the byte.
        candidates = DEFAULT_BYTE_TABLE.take(np.stack([data, data ^ 0xFF]))
        costs = block_costs(candidates, stored, self.energy_model, self.block_bytes)
        choice = costs.argmin(axis=0).astype(np.uint8)  # (n, blocks)
        data_states = unpack_state_bytes(select_block_bytes(candidates, choice, self.block_bytes))
        aux_states = pack_bits_to_states(choice)
        states = np.concatenate([data_states, aux_states], axis=1)
        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        aux_mask[:, SYMBOLS_PER_LINE:] = True
        compressed = np.zeros(n, dtype=bool)
        encoded = np.ones(n, dtype=bool)
        return states, aux_mask, compressed, encoded

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        flip_bits = unpack_states_to_bits(aux_states, self.num_blocks)
        symbols = invert_mapping(DEFAULT_MAPPING)[data_states]
        flip_per_cell = np.repeat(flip_bits, self.block_cells, axis=1).astype(bool)
        symbols = np.where(flip_per_cell, complement_symbols(symbols), symbols)
        return LineBatch.from_symbols(symbols)
