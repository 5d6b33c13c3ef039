"""Shared machinery of the WLC-based encoders (WLCRC and WLC+cosets).

All WLC-based schemes follow the same structure (Section VI of the paper):

1. Test whether the line is Word-Level-Compressible: the top ``k`` bits of all
   eight 64-bit words must be identical, where ``k`` is one more than the
   number of bits the scheme needs to reclaim per word.
2. If the line is compressible, each word is encoded independently: its data
   blocks are mapped through coset candidates chosen by the scheme-specific
   selection rule, and the per-word auxiliary bits (candidate selectors) are
   stored in the reclaimed most-significant bits of that word.
3. If the line is not compressible, it is written raw (default mapping, plain
   differential write).
4. One *flag cell* appended to the line records whether the line was
   compressed; following the paper it uses the two lowest-energy states
   (S1 = compressed, S2 = raw), for a space overhead below 0.4 %.

Concrete subclasses only provide the per-word candidate-selection rule
(:meth:`WLCWordEncoderBase._select_candidates`) and the mapping between
auxiliary bit values and per-block candidate indices
(:meth:`WLCWordEncoderBase._choices_from_aux`).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional, Tuple

import numpy as np

from ..compression.wlc import WLCCompressor
from ..core.cosets import DEFAULT_BYTE_TABLE, DEFAULT_MAPPING, invert_mapping, mapping_byte_table
from ..core.energy import DEFAULT_ENERGY_MODEL, REWRITE_COUNT_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_WORD,
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    pack_state_bytes,
    symbol_bytes,
    symbols_to_words,
)
from .base import (
    EncodeResult,
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cost_index,
    winner_bytes,
)

#: State-byte -> symbol-byte table of the default mapping (reads raw cells).
_DEFAULT_INVERSE_BYTE_TABLE = mapping_byte_table(invert_mapping(DEFAULT_MAPPING))

#: Flag-cell state marking a compressed (encoded) line.
FLAG_COMPRESSED_STATE = 0
#: Flag-cell state marking a raw (unencoded) line.
FLAG_RAW_STATE = 1


class WLCWordEncoderBase(WriteEncoder):
    """Base class of the word-level compressed coset encoders."""

    #: Whether :meth:`_select_candidates` reads per-block rewritten-cell
    #: counts; they are computed only when it does.
    counts_rewrites: bool = False

    def __init__(
        self,
        granularity_bits: int,
        candidates: np.ndarray,
        reclaimed_bits: int,
        name: str,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if granularity_bits not in (8, 16, 32, 64):
            raise ConfigurationError("WLC-based encodings support 8/16/32/64-bit blocks")
        if not 1 <= reclaimed_bits <= 32:
            raise ConfigurationError("reclaimed_bits must be between 1 and 32")
        self.granularity_bits = granularity_bits
        self.candidates = np.asarray(candidates, dtype=np.uint8)
        self.inverse_candidates = np.stack([invert_mapping(c) for c in self.candidates])
        self.byte_tables = candidate_byte_tables(self.candidates)
        self.reclaimed_bits = reclaimed_bits
        self.wlc = WLCCompressor(k=reclaimed_bits + 1)
        self.blocks_per_word = BITS_PER_WORD // granularity_bits
        self.block_cells = granularity_bits // 2
        self.block_bytes = granularity_bits // 8
        #: Cells at the top of each word that hold auxiliary (reclaimed) bits.
        self.aux_region_cells = (reclaimed_bits + 1) // 2
        #: Cells of each word that carry coset-encoded data.
        self.data_region_cells = SYMBOLS_PER_WORD - self.aux_region_cells
        #: Per line byte, the bits of its data-region cells.
        self.data_byte_mask = np.tile(
            pack_state_bytes(np.where(~self.word_aux_mask(), 3, 0)), WORDS_PER_LINE
        )
        #: Per candidate and line byte, the symbol the candidate maps to S1 in
        #: every reclaimed cell (ORed into the data half of the cost index).
        self.reclaimed_fills = np.stack(
            [
                np.uint8(0x55 * int(invert_mapping(c)[0])) & ~self.data_byte_mask
                for c in self.candidates
            ]
        )
        self.name = name

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def aux_cells(self) -> int:
        """One flag cell per line marks whether the line was compressed."""
        return 1

    @property
    def flag_cell_index(self) -> int:
        """Index of the compressibility flag cell within the written cells."""
        return SYMBOLS_PER_LINE

    def word_aux_mask(self) -> np.ndarray:
        """Per-word boolean mask of the cells attributed to auxiliary data."""
        mask = np.zeros(SYMBOLS_PER_WORD, dtype=bool)
        mask[self.data_region_cells:] = True
        return mask

    # ------------------------------------------------------------------ #
    # Scheme-specific hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _select_candidates(
        self,
        block_costs: np.ndarray,
        block_flips: Optional[np.ndarray],
        stored_aux_values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Choose a candidate per block and build per-word auxiliary values.

        Parameters
        ----------
        block_costs:
            ``(k, n, 8, blocks)`` per-block differential-write energies
            (exact ``int32`` for an integral model).
        block_flips:
            ``(k, n, 8, blocks)`` ``int32`` per-block rewritten-cell counts,
            or ``None`` unless :attr:`counts_rewrites` is set.
        stored_aux_values:
            ``(n, 8)`` integers currently held in the reclaimed bits of each
            stored word.  Cost ties are broken in favour of the stored
            candidate so that rewriting identical data leaves every auxiliary
            cell untouched (for raw stored lines the values are meaningless
            and only influence tie-breaks).

        Returns
        -------
        tuple
            ``(choice, aux_values)`` where ``choice`` has shape
            ``(n, 8, blocks)`` (candidate index per block) and ``aux_values``
            has shape ``(n, 8)`` (the integer written into the reclaimed bits
            of each word).
        """

    @abstractmethod
    def _choices_from_aux(self, aux_values: np.ndarray) -> np.ndarray:
        """Recover per-block candidate indices from the reclaimed-bit values."""

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        compressible = self.wlc.line_compressible(lines)
        # Lines WLC cannot compress are written raw; only the others are searched.
        data = DEFAULT_BYTE_TABLE.take(symbol_bytes(lines.words))
        rows = np.flatnonzero(compressible)
        if rows.size:
            data[rows] = self._encode_words(lines.words[rows], stored[rows])
        flag = np.where(compressible, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
        # The reclaimed cells of a compressed line's words hold auxiliary bits.
        aux_bytes = np.where(compressible[:, None], ~self.data_byte_mask, np.uint8(0))
        return data, flag[:, None], aux_bytes, compressible, compressible.copy()

    def _encode_words(self, words: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """State bytes of compressible lines ``words`` written over state bytes ``stored``.

        Each word's reclaimed cells are cleared in both halves of the shared
        cost index, and candidate ``j`` fills their data half with the symbol
        it maps to S1 (:attr:`reclaimed_fills`): they read as S1 over S1,
        unchanged and free, so one cost table per mapping serves every
        granularity.  Word blocks are contiguous bytes, so line-level blocks
        reshape into per-word ones.
        """
        n = words.shape[0]
        data = symbol_bytes(words)
        keep = self.data_byte_mask
        index = cost_index(stored & keep, data & keep)
        search = (self.candidates, index, self.block_bytes, self.reclaimed_fills)
        shape = (len(self.candidates), n, WORDS_PER_LINE, self.blocks_per_word)
        block_flips = None
        if self.counts_rewrites:
            block_flips = candidate_costs(REWRITE_COUNT_MODEL, *search).reshape(shape)
        choice, aux_values = self._select_candidates(
            candidate_costs(self.energy_model, *search).reshape(shape),
            block_flips,
            self._stored_aux_values(stored),
        )
        encoded = winner_bytes(self.byte_tables, choice.reshape(n, -1), data, self.block_bytes)
        # Auxiliary-region cells store the reclaimed bits under the default mapping.
        words_with_aux = self.wlc.insert_reclaimed(words, aux_values)
        aux_bytes = DEFAULT_BYTE_TABLE.take(symbol_bytes(words_with_aux))
        return (encoded & keep) | (aux_bytes & ~keep)

    def _stored_aux_values(self, stored_bytes: np.ndarray) -> np.ndarray:
        """Reclaimed-bit values currently stored in each word's auxiliary cells.

        ``stored_bytes`` is the ``(n, 64)`` array of stored state bytes.  The
        auxiliary region is always written under the default mapping, so
        reading the cells back as raw words recovers the stored selector bits.
        """
        raw_bytes = _DEFAULT_INVERSE_BYTE_TABLE.take(stored_bytes)
        words = raw_bytes.view("<u8").astype(np.uint64)
        return words >> np.uint64(BITS_PER_WORD - self.reclaimed_bits)

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        n = states.shape[0]
        data_states = states[:, :SYMBOLS_PER_LINE]
        flag = states[:, self.flag_cell_index]
        compressed = flag == FLAG_COMPRESSED_STATE

        inverse_default = invert_mapping(DEFAULT_MAPPING)
        raw_symbols = inverse_default[data_states]

        word_states = data_states.reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
        choice = self._choices_from_aux(self._stored_aux_values(pack_state_bytes(data_states)))

        per_cell_choice = np.repeat(choice, self.block_cells, axis=2)
        inverse = self.inverse_candidates[per_cell_choice]  # (n, 8, 32, 4)
        decoded_symbols = np.take_along_axis(
            inverse, word_states[..., None].astype(np.intp), axis=-1
        )[..., 0]
        # The aux region (including any data bit sharing a cell with aux bits)
        # was stored under the default mapping.
        decoded_symbols[..., self.data_region_cells:] = inverse_default[
            word_states[..., self.data_region_cells:]
        ]
        decoded_words = symbols_to_words(
            decoded_symbols.reshape(n, SYMBOLS_PER_LINE).astype(np.uint8)
        )
        decoded_words = self.wlc.sign_extend(decoded_words)

        raw_words = symbols_to_words(raw_symbols.astype(np.uint8))
        words = np.where(compressed[:, None], decoded_words, raw_words)
        return LineBatch(words)
