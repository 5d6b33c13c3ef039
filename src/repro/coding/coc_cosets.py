"""COC+4cosets: Coverage-Oriented Compression combined with 4cosets encoding.

This baseline (Section VIII of the paper) compresses each line with the COC
bank of compressors and applies the 4cosets encoding at a fine granularity to
the compressed payload, storing the per-block candidate indices in the space
the compression freed:

* lines compressed to at most 448 bits are encoded at 16-bit granularity;
* lines compressed to at most 480 bits are encoded at 32-bit granularity;
* all other lines are written raw.

Because the COC members re-pack the line into a dense variable-length stream,
the bit positions of consecutive writes to the same address rarely coincide,
so differential write loses most of its benefit -- this is the behaviour that
makes COC+4cosets *increase* write energy on low-memory-intensity workloads
in Figure 8, and it emerges naturally here because the encoded layout is the
actual compressed stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..compression.coc import COC_BUDGET_16BIT, COC_BUDGET_32BIT, COCCompressor
from ..compression.kernels import PackedBits
from ..core.cosets import DEFAULT_MAPPING, FOUR_COSETS, default_states, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_LINE,
    BYTES_PER_LINE,
    SYMBOLS_PER_LINE,
    pack_state_bytes,
    symbol_bytes,
    symbols_to_bits,
    symbols_to_words,
    unpack_state_bytes,
)
from .base import (
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cheapest,
    cost_index,
    pack_bits_to_states,
    unpack_states_to_bits,
    winner_bytes,
)
from .wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE


@dataclass(frozen=True)
class _Layout:
    """Geometry of one COC+4cosets encoding mode."""

    budget_bits: int
    granularity_bits: int
    #: Symbol value stored in the mode-indicator cell (cell 255).
    mode_symbol: int

    @property
    def data_cells(self) -> int:
        """Cells holding the (coset-encoded) compressed payload."""
        return self.budget_bits // 2

    @property
    def block_cells(self) -> int:
        """Cells per coset-encoding block."""
        return self.granularity_bits // 2

    @property
    def num_blocks(self) -> int:
        """Number of coset-encoding blocks in the payload region."""
        return self.data_cells // self.block_cells

    @property
    def aux_bits(self) -> int:
        """Auxiliary bits (2-bit candidate index per block)."""
        return 2 * self.num_blocks

    @property
    def aux_cells(self) -> int:
        """Cells holding the candidate indices, right after the payload region."""
        return (self.aux_bits + 1) // 2


#: 16-bit-granularity mode (compressed size <= 448 bits).
LAYOUT_16 = _Layout(budget_bits=COC_BUDGET_16BIT, granularity_bits=16, mode_symbol=0)
#: 32-bit-granularity mode (compressed size <= 480 bits).
LAYOUT_32 = _Layout(budget_bits=COC_BUDGET_32BIT, granularity_bits=32, mode_symbol=2)


class COCFourCosetsEncoder(WriteEncoder):
    """COC compression followed by unrestricted 4cosets encoding."""

    name = "coc+4cosets"
    # Compression, layout classification and coset choice are all per line,
    # so tiled fused-metrics evaluation is bit-identical to a batch encode.
    supports_fused_metrics = True

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        super().__init__(energy_model)
        self.compressor = COCCompressor()
        self.candidates = FOUR_COSETS
        self.inverse_candidates = np.stack([invert_mapping(c) for c in self.candidates])
        self.byte_tables = candidate_byte_tables(self.candidates)

    @property
    def aux_cells(self) -> int:
        """One flag cell distinguishes compressed lines from raw lines."""
        return 1

    @property
    def flag_cell_index(self) -> int:
        """Index of the compressed/raw flag cell."""
        return SYMBOLS_PER_LINE

    #: Index of the cell that records which layout (16- or 32-bit) was used.
    MODE_CELL = SYMBOLS_PER_LINE - 1

    # ------------------------------------------------------------------ #
    # Encoding helpers
    # ------------------------------------------------------------------ #
    def _layout_for_size(self, size: int) -> Optional[_Layout]:
        if size <= LAYOUT_16.budget_bits:
            return LAYOUT_16
        if size <= LAYOUT_32.budget_bits:
            return LAYOUT_32
        return None

    def _payload_bytes(
        self, lines: LineBatch, member_sizes: np.ndarray
    ) -> np.ndarray:
        """Compressed payloads of a batch as symbol bytes, zero-padded to 64 each.

        ``member_sizes`` is the bank-size matrix the caller already computed
        while classifying the batch; passing it through means the bank is
        never re-evaluated per line (the pre-validated batch entry point).
        """
        packed = self.compressor.compress_batch(lines, member_sizes=member_sizes)
        bits = np.zeros((len(lines), BITS_PER_LINE), dtype=np.uint8)
        width = min(packed.bits.shape[1], BITS_PER_LINE)
        bits[:, :width] = packed.bits[:, :width]
        return np.packbits(bits, axis=1, bitorder="little")

    def _encode_layout_group(
        self,
        indices: np.ndarray,
        payload_bytes: np.ndarray,
        stored_bytes: np.ndarray,
        layout: _Layout,
        data_states: np.ndarray,
        aux_mask: np.ndarray,
    ) -> None:
        """Coset-encode all lines of one layout group (vectorised)."""
        if indices.size == 0:
            return
        data_bytes, block_bytes = layout.data_cells // 4, layout.granularity_bits // 8
        payload = payload_bytes[indices, :data_bytes]
        index = cost_index(stored_bytes[indices, :data_bytes], payload)
        choice = cheapest(candidate_costs(self.energy_model, self.candidates, index, block_bytes))
        encoded = unpack_state_bytes(winner_bytes(self.byte_tables, choice, payload, block_bytes))
        choice_bits = np.zeros((indices.size, layout.aux_bits), dtype=np.uint8)
        choice_bits[:, 0::2] = choice & 1
        choice_bits[:, 1::2] = (choice >> 1) & 1
        aux_states = pack_bits_to_states(choice_bits)

        group_states = np.zeros((indices.size, SYMBOLS_PER_LINE), dtype=np.uint8)
        group_states[:, : layout.data_cells] = encoded
        aux_end = layout.data_cells + aux_states.shape[1]
        group_states[:, layout.data_cells:aux_end] = aux_states
        group_states[:, self.MODE_CELL] = DEFAULT_MAPPING[layout.mode_symbol]
        data_states[indices] = group_states
        aux_mask[indices, layout.data_cells:SYMBOLS_PER_LINE] = True

    # ------------------------------------------------------------------ #
    # WriteEncoder interface
    # ------------------------------------------------------------------ #
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        data_states = default_states(symbol_bytes(lines.words))
        member_sizes = self.compressor.member_sizes(lines)
        sizes = self.compressor.sizes_from_members(member_sizes)
        mode16 = sizes <= LAYOUT_16.budget_bits
        mode32 = (~mode16) & (sizes <= LAYOUT_32.budget_bits)
        compressible = mode16 | mode32

        aux_mask = np.zeros((n, self.total_cells), dtype=bool)

        payload_bytes = np.zeros((n, BYTES_PER_LINE), dtype=np.uint8)
        rows = np.nonzero(compressible)[0]
        if rows.size:
            payload_bytes[rows] = self._payload_bytes(
                LineBatch(lines.words[rows]), member_sizes[:, rows]
            )

        stored_bytes = pack_state_bytes(stored_states[:, :SYMBOLS_PER_LINE])
        self._encode_layout_group(
            np.nonzero(mode16)[0], payload_bytes, stored_bytes, LAYOUT_16, data_states,
            aux_mask[:, :SYMBOLS_PER_LINE],
        )
        self._encode_layout_group(
            np.nonzero(mode32)[0], payload_bytes, stored_bytes, LAYOUT_32, data_states,
            aux_mask[:, :SYMBOLS_PER_LINE],
        )

        flag_states = np.where(compressible, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
        states = np.concatenate([data_states, flag_states[:, None]], axis=1).astype(np.uint8)
        aux_mask[:, self.flag_cell_index] = True
        return states, aux_mask, compressible, compressible.copy()

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        inverse_default = invert_mapping(DEFAULT_MAPPING)
        flag = states[:, self.flag_cell_index]
        words = symbols_to_words(inverse_default[states[:, :SYMBOLS_PER_LINE]].astype(np.uint8))
        compressed = np.nonzero(flag == FLAG_COMPRESSED_STATE)[0]
        if compressed.size:
            mode_symbols = inverse_default[states[compressed, self.MODE_CELL]]
            mode16 = mode_symbols == LAYOUT_16.mode_symbol
            for layout, rows in (
                (LAYOUT_16, compressed[mode16]),
                (LAYOUT_32, compressed[~mode16]),
            ):
                if rows.size:
                    words[rows] = self._decode_layout_group(
                        states[rows, :SYMBOLS_PER_LINE], layout
                    )
        return LineBatch(words)

    def _decode_layout_group(self, line_states: np.ndarray, layout: _Layout) -> np.ndarray:
        """Decode every line of one layout group at once (vectorised)."""
        n = line_states.shape[0]
        aux_states = line_states[:, layout.data_cells:layout.data_cells + layout.aux_cells]
        choice_bits = unpack_states_to_bits(aux_states, layout.aux_bits)
        choice = (choice_bits[:, 0::2] | (choice_bits[:, 1::2] << 1)).astype(np.uint8)
        per_cell_choice = np.repeat(choice, layout.block_cells, axis=1)
        inverse = self.inverse_candidates[per_cell_choice]
        payload_states = line_states[:, : layout.data_cells]
        payload_symbols = np.take_along_axis(
            inverse, payload_states[..., None].astype(np.intp), axis=-1
        )[..., 0]
        full_symbols = np.zeros((n, SYMBOLS_PER_LINE), dtype=np.uint8)
        full_symbols[:, : layout.data_cells] = payload_symbols
        bits = symbols_to_bits(full_symbols)
        packed = PackedBits(
            bits, np.full(n, BITS_PER_LINE, dtype=np.int64), self.compressor.name
        )
        return self.compressor.decompress_batch(packed)
