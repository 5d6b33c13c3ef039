"""WLC combined with *unrestricted* coset encodings (WLC+4cosets, WLC+3cosets).

These schemes pair the Word-Level Compression front-end with the unrestricted
4cosets / 3cosets encodings of Section III: every data block of a compressible
word independently picks any of the candidates, at the cost of two auxiliary
bits per block stored in the reclaimed region.  Because the unrestricted
variants need more reclaimed bits than WLCRC at the same granularity
(Section IX-A: 16, 8, 4 and 2 bits per word at 8/16/32/64-bit blocks), fewer
lines are compressible at fine granularities -- which is why their energy
optimum sits at 32-bit blocks while WLCRC's sits at 16-bit blocks.

``WLC+4cosets`` with 32-bit blocks is the configuration evaluated as
``WLC+4cosets`` in Figures 8-10 of the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.cosets import FOUR_COSETS, THREE_COSETS
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from .base import cheapest
from .wlc_base import WLCWordEncoderBase

#: Auxiliary bits per data block (candidate index) for the unrestricted schemes.
BITS_PER_BLOCK = 2


class WLCNCosetsEncoder(WLCWordEncoderBase):
    """WLC + unrestricted coset encoding with a configurable candidate family."""

    def __init__(
        self,
        candidates: np.ndarray = FOUR_COSETS,
        granularity_bits: int = 32,
        name_prefix: str = "wlc+4cosets",
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        candidates = np.asarray(candidates, dtype=np.uint8)
        if candidates.shape[0] > 4:
            raise ConfigurationError(
                "unrestricted WLC encodings use a 2-bit per-block index (at most 4 candidates)"
            )
        blocks_per_word = 64 // granularity_bits
        reclaimed = BITS_PER_BLOCK * blocks_per_word
        super().__init__(
            granularity_bits=granularity_bits,
            candidates=candidates,
            reclaimed_bits=reclaimed,
            name=f"{name_prefix}-{granularity_bits}",
            energy_model=energy_model,
        )

    def _select_candidates(
        self,
        block_costs: np.ndarray,
        block_flips: Optional[np.ndarray],
        stored_aux_values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Prefer the candidate already recorded in the stored auxiliary bits on
        # exact cost ties, so rewriting identical data touches no cells.
        choice = cheapest(block_costs, self._choices_from_aux(stored_aux_values))
        aux_values = np.zeros(choice.shape[:2], dtype=np.uint64)
        for block in range(self.blocks_per_word):
            aux_values |= choice[..., block].astype(np.uint64) << np.uint64(BITS_PER_BLOCK * block)
        return choice, aux_values

    def _choices_from_aux(self, aux_values: np.ndarray) -> np.ndarray:
        aux_values = np.asarray(aux_values, dtype=np.uint64)
        blocks = []
        mask = np.uint64((1 << BITS_PER_BLOCK) - 1)
        limit = self.candidates.shape[0] - 1
        for block in range(self.blocks_per_word):
            index = ((aux_values >> np.uint64(BITS_PER_BLOCK * block)) & mask).astype(np.uint8)
            blocks.append(np.minimum(index, limit))
        return np.stack(blocks, axis=-1)


def make_wlc_four_cosets(
    granularity_bits: int = 32, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL
) -> WLCNCosetsEncoder:
    """WLC+4cosets at the requested granularity (paper default: 32-bit blocks)."""
    return WLCNCosetsEncoder(
        FOUR_COSETS, granularity_bits, name_prefix="wlc+4cosets", energy_model=energy_model
    )


def make_wlc_three_cosets(
    granularity_bits: int = 32, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL
) -> WLCNCosetsEncoder:
    """WLC+3cosets at the requested granularity (used in the Figure 11-13 sweeps)."""
    return WLCNCosetsEncoder(
        THREE_COSETS, granularity_bits, name_prefix="wlc+3cosets", energy_model=energy_model
    )
