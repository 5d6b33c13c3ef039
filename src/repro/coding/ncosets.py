"""Unrestricted coset encodings: 6cosets, 4cosets and 3cosets.

An *unrestricted* coset encoding partitions the 512-bit line into data blocks
of a chosen granularity and, independently for every block, picks the coset
candidate (symbol-to-state mapping) that minimises the differential-write
energy of that block.  The candidate index of every block is recorded in
auxiliary cells appended to the line:

* **6cosets** [Wang et al., ICCD 2011] uses the six pair mappings of
  :data:`repro.core.cosets.SIX_COSETS` and stores the index in *two* auxiliary
  cells per block, using only the six cheapest two-cell state combinations.
* **4cosets** (the paper's Table I candidates) and **3cosets** (candidates
  C1-C3) store the index in a *single* auxiliary cell per block, candidate
  ``Ci`` being flagged by state ``Si`` so that the most frequent candidates
  keep the auxiliary cell in a low-energy state.

These encoders reproduce Figures 1, 2, 3 and 5 of the paper and serve as the
building blocks of the WLC-based schemes.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

import numpy as np

from ..core.cosets import FOUR_COSETS, SIX_COSETS, THREE_COSETS, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_LINE,
    SYMBOLS_PER_LINE,
    pack_state_bytes,
    symbol_bytes,
    unpack_state_bytes,
)
from .base import (
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cheapest,
    cost_index,
    winner_bytes,
)


class AuxCodec:
    """Translate per-block candidate indices to auxiliary cell states and back."""

    #: Number of auxiliary cells per data block.
    cells_per_block: int = 1

    def encode(self, choice: np.ndarray) -> np.ndarray:
        """Auxiliary states for a ``(n, blocks)`` array of candidate indices."""
        raise NotImplementedError

    def decode(self, aux_states: np.ndarray, blocks: int) -> np.ndarray:
        """Candidate indices recovered from auxiliary states."""
        raise NotImplementedError


class SingleCellAuxCodec(AuxCodec):
    """Candidate index ``i`` is stored as state ``Si`` in one auxiliary cell.

    This matches the paper's 4cosets/3cosets auxiliary encoding: candidates C1
    and C2, by far the most frequent on biased data, keep the auxiliary cell in
    the two low-energy states.
    """

    cells_per_block = 1

    def __init__(self, num_candidates: int):
        if not 1 <= num_candidates <= 4:
            raise ConfigurationError("single-cell aux codec supports at most 4 candidates")
        self.num_candidates = num_candidates

    def encode(self, choice: np.ndarray) -> np.ndarray:
        return np.asarray(choice, dtype=np.uint8)

    def decode(self, aux_states: np.ndarray, blocks: int) -> np.ndarray:
        choice = np.asarray(aux_states, dtype=np.uint8)[:, :blocks]
        return np.minimum(choice, self.num_candidates - 1)


class PairCellAuxCodec(AuxCodec):
    """Candidate index stored as one of the cheapest two-cell state combinations.

    The paper's 6cosets evaluation stores the chosen candidate in two
    auxiliary cells and uses only the six state combinations with the lowest
    total write energy; this codec generalises that to any candidate count up
    to 16.
    """

    cells_per_block = 2

    def __init__(self, num_candidates: int, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        if not 1 <= num_candidates <= 16:
            raise ConfigurationError("pair-cell aux codec supports at most 16 candidates")
        self.num_candidates = num_candidates
        weights = energy_model.write_energy_per_state
        combos = sorted(
            product(range(4), repeat=2),
            key=lambda pair: (weights[pair[0]] + weights[pair[1]], pair),
        )
        self.combos = np.asarray(combos[:num_candidates], dtype=np.uint8)
        # Candidate index of every (first, second) state pair; unused pairs -> 0.
        self._lookup = np.zeros(16, dtype=np.uint8)
        self._lookup[self.combos[:, 0] * 4 + self.combos[:, 1]] = np.arange(num_candidates)

    def encode(self, choice: np.ndarray) -> np.ndarray:
        choice = np.asarray(choice)
        pairs = self.combos[choice]  # (n, blocks, 2)
        return pairs.reshape(choice.shape[0], choice.shape[1] * 2)

    def decode(self, aux_states: np.ndarray, blocks: int) -> np.ndarray:
        aux_states = np.asarray(aux_states, dtype=np.uint8)[:, : blocks * 2]
        pairs = aux_states.reshape(aux_states.shape[0], blocks, 2)
        return self._lookup[pairs[..., 0] * 4 + pairs[..., 1]]


class NCosetsEncoder(WriteEncoder):
    """Generic unrestricted coset encoder over a fixed candidate family."""

    def __init__(
        self,
        candidates: np.ndarray,
        granularity_bits: int = 512,
        name: Optional[str] = None,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        candidates = np.asarray(candidates, dtype=np.uint8)
        if candidates.ndim != 2 or candidates.shape[1] != 4:
            raise ConfigurationError("candidates must have shape (k, 4)")
        if granularity_bits % 8 or BITS_PER_LINE % granularity_bits:
            raise ConfigurationError("granularity_bits must be a multiple of 8 dividing 512")
        self.candidates = candidates
        self.inverse_candidates = np.stack([invert_mapping(c) for c in candidates])
        self.byte_tables = candidate_byte_tables(candidates)
        self.granularity_bits = granularity_bits
        self.block_cells = granularity_bits // 2
        self.block_bytes = granularity_bits // 8
        self.num_blocks = SYMBOLS_PER_LINE // self.block_cells
        if candidates.shape[0] <= 4:
            self.aux_codec: AuxCodec = SingleCellAuxCodec(candidates.shape[0])
        else:
            self.aux_codec = PairCellAuxCodec(candidates.shape[0], energy_model)
        self.name = name or f"{candidates.shape[0]}cosets-{granularity_bits}"

    @property
    def aux_cells(self) -> int:
        """Auxiliary cells appended to the line (per-block candidate indices)."""
        return self.num_blocks * self.aux_codec.cells_per_block

    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        data = symbol_bytes(lines.words)
        index = cost_index(pack_state_bytes(stored_states[:, :SYMBOLS_PER_LINE]), data)
        choice = cheapest(
            candidate_costs(self.energy_model, self.candidates, index, self.block_bytes)
        )  # (n, blocks)
        data_states = unpack_state_bytes(
            winner_bytes(self.byte_tables, choice, data, self.block_bytes)
        )
        aux_states = self.aux_codec.encode(choice)
        states = np.concatenate([data_states, aux_states], axis=1).astype(np.uint8)
        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        aux_mask[:, SYMBOLS_PER_LINE:] = True
        compressed = np.zeros(n, dtype=bool)
        encoded = np.ones(n, dtype=bool)
        return states, aux_mask, compressed, encoded

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        choice = self.aux_codec.decode(aux_states, self.num_blocks)
        per_cell_choice = np.repeat(choice, self.block_cells, axis=1)
        inverse = self.inverse_candidates[per_cell_choice]  # (n, cells, 4)
        symbols = np.take_along_axis(inverse, data_states[..., None].astype(np.intp), axis=-1)[..., 0]
        return LineBatch.from_symbols(symbols.astype(np.uint8))


def make_six_cosets(granularity_bits: int = 512, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> NCosetsEncoder:
    """The prior-work 6cosets scheme at the requested granularity."""
    return NCosetsEncoder(
        SIX_COSETS, granularity_bits, name=f"6cosets-{granularity_bits}", energy_model=energy_model
    )


def make_four_cosets(granularity_bits: int = 512, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> NCosetsEncoder:
    """The proposed 4cosets scheme (Table I candidates) at the requested granularity."""
    return NCosetsEncoder(
        FOUR_COSETS, granularity_bits, name=f"4cosets-{granularity_bits}", energy_model=energy_model
    )


def make_three_cosets(granularity_bits: int = 512, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> NCosetsEncoder:
    """The unrestricted 3cosets scheme (candidates C1-C3) at the requested granularity."""
    return NCosetsEncoder(
        THREE_COSETS, granularity_bits, name=f"3cosets-{granularity_bits}", energy_model=energy_model
    )
