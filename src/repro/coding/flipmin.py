"""FlipMin [Jacobvitz et al., HPCA 2013], adapted to MLC PCM.

FlipMin XORs the memory line with one of sixteen binary coset vectors and
writes whichever result is cheapest, recording the vector index in two
auxiliary symbols (four bits).  The original vectors come from the dual code
of a (72, 64) Hamming generator matrix and behave like random binary vectors;
this implementation generates them from a fixed-seed PRNG
(:func:`repro.core.cosets.flipmin_coset_vectors`) so runs are reproducible.
Because the vectors are random, FlipMin works best on random data and loses
its edge on the biased data of real workloads -- one of the observations that
motivates the paper's hand-crafted coset candidates.
"""

from __future__ import annotations

import numpy as np

from ..core.cosets import DEFAULT_BYTE_TABLE, DEFAULT_MAPPING, flipmin_coset_vectors, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import BYTES_PER_LINE, SYMBOLS_PER_LINE, symbol_bytes
from .base import (
    EncodeResult,
    WriteEncoder,
    block_sums,
    cheapest,
    cost_index,
    every_line_encoded,
    pack_bits_to_states,
    unpack_states_to_bits,
)


class FlipMinEncoder(WriteEncoder):
    """FlipMin with sixteen pseudo-random 512-bit coset vectors."""

    name = "flipmin"

    def __init__(
        self,
        num_cosets: int = 16,
        seed: int = 0x5EED,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if num_cosets < 2 or num_cosets > 16:
            raise ConfigurationError("num_cosets must be between 2 and 16")
        self.num_cosets = num_cosets
        self.vectors = flipmin_coset_vectors(num_cosets, seed=seed)
        self.vector_states = DEFAULT_BYTE_TABLE.take(symbol_bytes(self.vectors))
        self.index_bits = max(1, (num_cosets - 1).bit_length())

    @property
    def aux_cells(self) -> int:
        """Auxiliary cells holding the coset-vector index (four bits -> two cells)."""
        return (self.index_bits + 1) // 2

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        # The default mapping is linear over GF(2): symbol bits (h, l) become
        # state bits (l, h ^ l).  So the states of ``line ^ vector`` are the
        # line's state bytes XOR the vector's, and a vector's cost is one
        # lookup per byte at the shared index XOR the vector's state bytes.
        line_states = DEFAULT_BYTE_TABLE.take(symbol_bytes(lines.words))
        index = cost_index(stored, line_states)
        table = self.energy_model.byte_cost_table
        costs = [block_sums(table.take(index ^ v), BYTES_PER_LINE) for v in self.vector_states]
        choice = cheapest(np.stack(costs))  # (n, 1)
        index_bits = np.stack(
            [((choice[:, 0] >> b) & 1).astype(np.uint8) for b in range(self.index_bits)], axis=1
        )
        return every_line_encoded(
            line_states ^ self.vector_states[choice[:, 0]], pack_bits_to_states(index_bits)
        )

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        bits = unpack_states_to_bits(aux_states, self.index_bits)
        index = np.zeros(states.shape[0], dtype=np.int64)
        for b in range(self.index_bits):
            index |= bits[:, b].astype(np.int64) << b
        index = np.clip(index, 0, self.num_cosets - 1)
        symbols = invert_mapping(DEFAULT_MAPPING)[data_states]
        batch = LineBatch.from_symbols(symbols)
        words = batch.words ^ self.vectors[index]
        return LineBatch(words)
