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

from ..core.cosets import default_states, default_symbols, flipmin_coset_vectors
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import BYTES_PER_LINE, SYMBOLS_PER_LINE, pack_state_bytes
from ..obs import span
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
        self.vector_states = default_states(self.vectors).view(np.uint8)
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
        line_states = default_states(lines.words).view(np.uint8)
        index = cost_index(stored, line_states)
        table = self.energy_model.byte_cost_table
        costs = [block_sums(table.take(index ^ v), BYTES_PER_LINE) for v in self.vector_states]
        choice = cheapest(np.stack(costs))  # (n, 1)
        index_bits = (choice >> np.arange(self.index_bits, dtype=np.uint8)) & 1
        return every_line_encoded(
            line_states ^ self.vector_states[choice[:, 0]], pack_bits_to_states(index_bits)
        )

    def decode_states(self, states: np.ndarray) -> LineBatch:
        """The packed words' default decode XOR the recorded vector (clamped to the last)."""
        states = np.asarray(states, dtype=np.uint8)
        with span("decode", scheme=self.name, lines=len(states)):
            bits = unpack_states_to_bits(states[:, SYMBOLS_PER_LINE:], self.index_bits)
            index = (bits.astype(np.int64) << np.arange(self.index_bits)).sum(axis=1)
            index = np.minimum(index, self.num_cosets - 1)
            state_bytes = pack_state_bytes(states[:, :SYMBOLS_PER_LINE])
            return LineBatch(default_symbols(state_bytes.view("<u8")) ^ self.vectors[index])
