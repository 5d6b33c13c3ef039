"""Restricted coset coding at memory-line scope (Section V of the paper).

Instead of letting every data block pick any of the candidates C1, C2, C3
independently (the unrestricted *3cosets* scheme), restricted coset coding
groups the candidates into two families -- ``{C1, C2}`` and ``{C1, C3}`` --
and forces every block of a memory line to draw from the *same* family.  The
line is encoded twice (once per family) and the cheaper result is kept.  The
auxiliary information shrinks from two bits per block to one global
family-selector bit per line plus one bit per block; because consecutive words
of a line share bit-pattern characteristics, the restriction costs very little
energy (Figure 5).

This module implements the line-scope variant called ``3-r-cosets`` in
Figure 5; the word-scope variant embedded in compressed lines is
:class:`repro.coding.wlcrc.WLCRCEncoder`.
"""

from __future__ import annotations

import numpy as np

from ..core.cosets import THREE_COSETS, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import BITS_PER_LINE, SYMBOLS_PER_LINE, symbol_bytes
from .base import (
    EncodeResult,
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cost_index,
    every_line_encoded,
    pack_bits_to_states,
    unpack_states_to_bits,
    winner_bytes,
)

#: Candidate index used by each (family, selector-bit) combination.
#: Family 0 may use C1 (bit 0) or C2 (bit 1); family 1 may use C1 or C3.
FAMILY_CANDIDATES = np.array([[0, 1], [0, 2]], dtype=np.uint8)


class RestrictedCosetEncoder(WriteEncoder):
    """Line-scope restricted coset coding over candidates C1, C2 and C3."""

    def __init__(
        self,
        granularity_bits: int = 16,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if granularity_bits % 8 or BITS_PER_LINE % granularity_bits:
            raise ConfigurationError("granularity_bits must be a multiple of 8 dividing 512")
        self.granularity_bits = granularity_bits
        self.block_cells = granularity_bits // 2
        self.block_bytes = granularity_bits // 8
        self.num_blocks = SYMBOLS_PER_LINE // self.block_cells
        self.candidates = THREE_COSETS
        self.inverse_candidates = np.stack([invert_mapping(c) for c in self.candidates])
        self.byte_tables = candidate_byte_tables(self.candidates)
        self.name = f"3-r-cosets-{granularity_bits}"

    @property
    def aux_cells(self) -> int:
        """One family bit per line plus one selector bit per block, two bits per cell."""
        return (1 + self.num_blocks + 1) // 2

    @property
    def aux_bits(self) -> int:
        """Number of auxiliary bits per line (family bit + per-block selectors)."""
        return 1 + self.num_blocks

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        data = symbol_bytes(lines.words)
        index = cost_index(stored, data)
        costs = candidate_costs(self.energy_model, self.candidates, index, self.block_bytes)
        # costs has shape (3, n, blocks); family 0 = {C1, C2}, family 1 = {C1, C3}.
        family_costs = np.stack(
            [
                np.minimum(costs[0], costs[1]).sum(axis=-1),
                np.minimum(costs[0], costs[2]).sum(axis=-1),
            ]
        )  # (2, n)
        family = family_costs.argmin(axis=0).astype(np.uint8)  # (n,)
        alternative = np.where(family[:, None] == 0, costs[1], costs[2])  # (n, blocks)
        selector = (alternative < costs[0]).astype(np.uint8)  # (n, blocks)
        choice = FAMILY_CANDIDATES[family[:, None], selector]  # (n, blocks)
        bits = np.concatenate([family[:, None], selector], axis=1).astype(np.uint8)
        return every_line_encoded(
            winner_bytes(self.byte_tables, choice, data, self.block_bytes),
            pack_bits_to_states(bits),
        )

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        bits = unpack_states_to_bits(aux_states, self.aux_bits)
        family = bits[:, 0]
        selector = bits[:, 1:]
        choice = FAMILY_CANDIDATES[family[:, None], selector]
        per_cell_choice = np.repeat(choice, self.block_cells, axis=1)
        inverse = self.inverse_candidates[per_cell_choice]
        symbols = np.take_along_axis(inverse, data_states[..., None].astype(np.intp), axis=-1)[..., 0]
        return LineBatch.from_symbols(symbols.astype(np.uint8))
