"""The two coset engines: every coset scheme of the paper is a spec run by one of them.

A coset scheme writes each data block of a line under one of a few
symbol-to-state mappings (*candidates*), picked per block to minimise the
differential-write energy, and records the picks as auxiliary information.
The schemes differ only in data, a :class:`CosetSpec`
(:data:`repro.coding.registry.COSET_SPECS` lists them all):

* the **candidates**: FNW's {C1, C3} (a block as is or complemented, [Cho &
  Lee, MICRO 2009]), the six pair mappings of 6cosets [Wang et al., ICCD
  2011], or the paper's Table I candidates C1-C4 (4cosets) and C1-C3;
* the **block size** (granularity) the spec is built at;
* the **selection rule**, both in :mod:`repro.coding.base`: ``cheapest``
  lets every block take any candidate; ``restricted`` is Algorithm 1, where
  all blocks of a scope draw from one family, {C1, C2} or {C1, C3}, so one
  family bit plus one selector bit per block replace a 2-bit index per
  block (Section V);
* the **aux layout**.  :class:`CosetEncoder` works at line scope and appends
  its aux cells: one cell per block whose state is the block's index
  (``cells``), two cells per block holding one of the cheapest state pairs
  (``pairs``), or a bit string packed two bits per cell under the default
  mapping (``bits``: FNW's flip bits, 3-r-cosets' family bit and
  selectors).  :class:`WLCCosetEncoder` works at word scope (``reclaimed``,
  Section VI): it encodes only the lines Word-Level Compression can
  compress, puts each word's picks in the bits WLC reclaimed at its top,
  and appends one flag cell, S1 for a compressed line and S2 for a line
  written raw (a space overhead below 0.4 %).

Both engines derive from :class:`CosetEngine`, which checks a spec against
the engine and the block size, runs the one search --
:func:`~repro.coding.base.cost_index` ->
:func:`~repro.coding.base.candidate_costs` -> the rule ->
:func:`~repro.coding.base.winner_bytes` -- and decodes on state bytes with one
gather of the candidates' inverse byte tables at ``choice << 8 | byte``.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Optional, Tuple

import numpy as np

from ..compression.wlc import WLCCompressor
from ..core.cosets import default_states, default_symbols, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, REWRITE_COUNT_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_LINE,
    BITS_PER_WORD,
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    bytes_to_words,
    pack_state_bytes,
    symbol_bytes,
)
from ..obs import span
from .base import (
    FLAG_COMPRESSED_STATE,
    FLAG_RAW_STATE,
    EncodeResult,
    WriteEncoder,
    candidate_byte_tables,
    candidate_costs,
    cheapest,
    cost_index,
    every_line_encoded,
    family_choice,
    inverse_byte_tables,
    pack_bits_to_states,
    restricted,
    unpack_states_to_bits,
    winner_bytes,
)

#: Line-scope block sizes: whole bytes that divide the 512-bit line.
LINE_GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)
#: Most candidates the unrestricted rule can record in each aux layout.
MAX_CANDIDATES = {"cells": 4, "pairs": 16, "bits": 2, "reclaimed": 4}


@dataclass(frozen=True, eq=False)
class CosetSpec:
    """One coset scheme as data; an engine builds it at a granularity."""

    #: Name prefix: the encoder built at ``g``-bit blocks is ``<name>-<g>``.
    name: str
    #: ``(k, 4)`` candidate mappings, in index order.
    candidates: np.ndarray
    #: ``"cheapest"`` (any candidate per block) or ``"restricted"`` (Algorithm 1).
    rule: str
    #: ``"cells"``, ``"pairs"`` or ``"bits"`` (line scope), or ``"reclaimed"`` (word scope).
    aux: str
    #: Block size of the bare name.
    default_bits: int
    #: Word scope only: reclaimed bits per word at each supported block size.
    reclaimed_bits: Optional[Mapping[int, int]] = None
    #: Section VIII-D: the scheme takes an endurance threshold (its ``-mo`` variant).
    multi_objective: bool = False

    def __post_init__(self) -> None:
        candidates = np.asarray(self.candidates)
        counts = (3,) if self.rule == "restricted" else range(1, MAX_CANDIDATES[self.aux] + 1)
        if candidates.ndim != 2 or candidates.shape[1] != 4 or len(candidates) not in counts:
            raise ConfigurationError(
                f"{self.name}: the {self.rule} rule in the {self.aux} layout takes "
                f"{list(counts)} candidate mappings of 4 states"
            )

    @property
    def granularities(self) -> Tuple[int, ...]:
        """Block sizes (bits) the spec supports."""
        return tuple(self.reclaimed_bits or LINE_GRANULARITIES)


@lru_cache(maxsize=8)
def aux_pairs(energy_model: EnergyModel, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``pairs`` layout: the ``count`` cheapest two-cell state pairs, and their index.

    The first is ``(count, 2)``, cheapest first (ties by pair), so candidate
    ``i`` is written as pair ``i``; the second maps ``first * 4 + second``
    back to the index, a pair no encoder writes reading as 0.  Read-only and
    cached at module level.
    """
    weights = energy_model.write_energy_per_state
    ranked = sorted(product(range(4), repeat=2), key=lambda p: (weights[p[0]] + weights[p[1]], p))
    pairs = np.array(ranked[:count], dtype=np.uint8)
    index = np.zeros(16, dtype=np.uint8)
    index[pairs[:, 0] * 4 + pairs[:, 1]] = np.arange(count)
    pairs.flags.writeable = index.flags.writeable = False
    return pairs, index


class CosetEngine(WriteEncoder):
    """What both engines share: a spec built at a block size, the search and the decode.

    The constructor rejects a spec whose aux layout the engine does not
    write, a block size the spec does not support, and an endurance
    threshold for a spec without the Section VIII-D objective.
    """

    #: Aux layouts the engine writes.
    layouts: Tuple[str, ...] = ()

    def __init__(
        self,
        spec: CosetSpec,
        granularity_bits: int,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
        endurance_threshold: Optional[float] = None,
    ):
        super().__init__(energy_model)
        if spec.aux not in self.layouts:
            raise ConfigurationError(f"{type(self).__name__} cannot write the {spec.aux} layout")
        if granularity_bits not in spec.granularities:
            raise ConfigurationError(f"{spec.name} has no {granularity_bits}-bit blocks")
        if endurance_threshold is not None and not spec.multi_objective:
            raise ConfigurationError(f"{spec.name} has no endurance objective")
        if endurance_threshold is not None and endurance_threshold < 0:
            raise ConfigurationError("endurance_threshold must be non-negative")
        self.spec = spec
        self.granularity_bits = granularity_bits
        self.block_bytes = granularity_bits // 8
        #: Section VIII-D: restricted family picks by rewritten cells within this.
        self.endurance_threshold = endurance_threshold
        suffix = "" if endurance_threshold is None else f"-mo{endurance_threshold:g}"
        self.name = f"{spec.name}-{granularity_bits}{suffix}"

    @property
    def candidates(self) -> np.ndarray:
        return self.spec.candidates

    @property
    def num_blocks(self) -> int:
        return BITS_PER_LINE // self.granularity_bits

    def _search(
        self,
        index: np.ndarray,
        scope: Tuple[int, ...],
        fills: Optional[np.ndarray] = None,
        stored: Optional[Tuple[Optional[np.ndarray], np.ndarray]] = None,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(family, choice)`` of every block of the ``(n, 64)`` cost ``index``.

        Costs are reshaped to ``(k, n) + scope``, a scope's blocks on the last
        axis.  ``stored`` is the stored ``(family, choice)`` for the
        stored-pick tie-breaks; ``family`` is ``None`` under ``cheapest``.
        """
        search = (self.candidates, index, self.block_bytes, fills)
        shape = (len(self.candidates), len(index)) + scope
        family_rule = self.spec.rule == "restricted"
        with span("cost_search", scheme=self.name, lines=len(index)):
            costs = candidate_costs(self.energy_model, *search).reshape(shape)
            flips = None
            if family_rule and self.endurance_threshold is not None:
                flips = candidate_costs(REWRITE_COUNT_MODEL, *search).reshape(shape)
        with span("select", scheme=self.name, lines=len(index)):
            if family_rule:
                return restricted(costs, stored, flips, self.endurance_threshold)
            return None, cheapest(costs, None if stored is None else stored[1])

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        with span("decode", scheme=self.name, lines=len(states)):
            state_bytes = pack_state_bytes(states[:, :SYMBOLS_PER_LINE])
            return LineBatch(self._decode_bytes(state_bytes, states[:, SYMBOLS_PER_LINE:]))

    @abstractmethod
    def _decode_bytes(self, state_bytes: np.ndarray, aux: np.ndarray) -> np.ndarray:
        """``(n, 8)`` words of the data ``state_bytes`` under the appended ``aux`` cells."""


class CosetEncoder(CosetEngine):
    """Line scope: every block's pick is recorded in aux cells appended to the line."""

    layouts = ("cells", "pairs", "bits")

    @property
    def aux_bits(self) -> int:
        """Bits of the ``bits`` layout: a family bit under the restricted rule, one per block."""
        return (self.spec.rule == "restricted") + self.num_blocks

    @property
    def aux_cells(self) -> int:
        cells = {"cells": self.num_blocks, "pairs": 2 * self.num_blocks}
        return cells.get(self.spec.aux, (self.aux_bits + 1) // 2)

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        data = symbol_bytes(lines.words)
        family, choice = self._search(cost_index(stored, data), (self.num_blocks,))
        tables = candidate_byte_tables(self.candidates)
        written = winner_bytes(tables, choice, data, self.block_bytes)
        return every_line_encoded(written, self._aux_states(family, choice))

    def _aux_states(self, family: Optional[np.ndarray], choice: np.ndarray) -> np.ndarray:
        """The appended aux cells recording every line's picks."""
        if self.spec.aux == "cells":
            return choice
        if self.spec.aux == "pairs":
            pairs, _ = aux_pairs(self.energy_model, len(self.candidates))
            return pairs[choice].reshape(len(choice), -1)
        if family is not None:  # the family bit, then one selector bit per block
            choice = np.concatenate([family[:, None], choice != 0], axis=1)
        return pack_bits_to_states(choice)

    def _read_aux(self, aux: np.ndarray) -> np.ndarray:
        """Every block's candidate from the appended aux cells.

        An index cell past the last candidate reads as the last one and a
        pair outside the cheapest pairs as candidate 0.
        """
        if self.spec.aux == "cells":
            return np.minimum(aux, len(self.candidates) - 1)
        if self.spec.aux == "pairs":
            _, index = aux_pairs(self.energy_model, len(self.candidates))
            return index[aux[:, 0::2] * 4 + aux[:, 1::2]]
        bits = unpack_states_to_bits(aux, self.aux_bits)
        if self.spec.rule == "restricted":
            return family_choice(bits[:, 0], bits[:, 1:])
        return bits

    def _decode_bytes(self, state_bytes: np.ndarray, aux: np.ndarray) -> np.ndarray:
        """Words of the data ``state_bytes``: one gather at ``choice << 8 | byte``."""
        tables = inverse_byte_tables(self.candidates)
        choice = self._read_aux(aux)
        return bytes_to_words(winner_bytes(tables, choice, state_bytes, self.block_bytes))


class WLCCosetEncoder(CosetEngine):
    """Word scope: WLC-compressible lines, each word's picks in its reclaimed bits.

    A line is compressible when the top ``reclaimed_bits + 1`` bits of every
    word are identical; the top ``reclaimed_bits`` are then redundant (sign
    extension restores them) and hold the word's aux bits.  Each word of a
    compressible line is encoded on its own; any other line is written raw
    under the default mapping.
    """

    layouts = ("reclaimed",)

    def __init__(
        self,
        spec: CosetSpec,
        granularity_bits: int,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
        endurance_threshold: Optional[float] = None,
    ):
        super().__init__(spec, granularity_bits, energy_model, endurance_threshold)
        self.reclaimed_bits = spec.reclaimed_bits[granularity_bits]
        self.wlc = WLCCompressor(k=self.reclaimed_bits + 1)
        self.blocks_per_word = BITS_PER_WORD // granularity_bits
        #: Cells at the top of each word holding reclaimed bits, and the data cells below.
        self.aux_region_cells = (self.reclaimed_bits + 1) // 2
        self.data_region_cells = SYMBOLS_PER_WORD - self.aux_region_cells
        #: Per line byte, the bits of its data-region cells.
        data_cells = np.arange(SYMBOLS_PER_WORD) < self.data_region_cells
        self.data_byte_mask = np.tile(pack_state_bytes(np.where(data_cells, 3, 0)), WORDS_PER_LINE)
        #: Per candidate and line byte, the symbol the candidate maps to S1 in
        #: every reclaimed cell (ORed into the data half of the cost index).
        s1_symbols = [int(invert_mapping(c)[0]) for c in self.candidates]
        self.reclaimed_fills = np.stack(
            [np.uint8(0x55 * symbol) & ~self.data_byte_mask for symbol in s1_symbols]
        )

    @property
    def aux_cells(self) -> int:
        """One flag cell per line marks whether the line was compressed."""
        return 1

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        compressible = self.wlc.line_compressible(lines)
        # Lines WLC cannot compress are written raw; only the others are searched.
        data = default_states(lines.words).view(np.uint8)
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
        reshape into per-word ones.  Ties go to the picks stored in the
        overwritten words' reclaimed bits.
        """
        data, keep = symbol_bytes(words), self.data_byte_mask
        stored_picks = self._read_reclaimed(default_symbols(stored.view("<u8")))
        family, choice = self._search(
            cost_index(stored & keep, data & keep),
            (WORDS_PER_LINE, self.blocks_per_word),
            self.reclaimed_fills,
            stored_picks,
        )
        tables = candidate_byte_tables(self.candidates)
        written = winner_bytes(tables, self._line_blocks(choice), data, self.block_bytes)
        # The reclaimed cells store the aux bits under the default mapping.
        with_aux = self.wlc.insert_reclaimed(words, self._reclaimed_value(family, choice))
        return (written & keep) | (default_states(with_aux).view(np.uint8) & ~keep)

    def _line_blocks(self, choice: np.ndarray) -> np.ndarray:
        """``(n, 8, blocks)`` per-word choices as ``(n, 8 * blocks)`` line blocks."""
        return choice.reshape(len(choice), WORDS_PER_LINE * self.blocks_per_word)

    def _reclaimed_value(self, family: Optional[np.ndarray], choice: np.ndarray) -> np.ndarray:
        """The value every word stores in its reclaimed bits (at most 16 of them).

        Unrestricted: block ``b``'s 2-bit index at bits ``2b..2b+1``.
        Restricted: block ``b``'s selector at bit ``b`` under the family bit,
        the top one (bit 63 of the word); with 8-bit blocks the top block is
        compressed away and stores no selector.
        """
        value = np.zeros(choice.shape[:-1], dtype=np.uint16)
        if family is None:
            for block in range(self.blocks_per_word):
                value |= choice[..., block].astype(np.uint16) << (2 * block)
            return value
        top = self.reclaimed_bits - 1
        for block in range(min(self.blocks_per_word, top)):
            value |= (choice[..., block] != 0).astype(np.uint16) << block
        return value | (family.astype(np.uint16) << top)

    def _read_reclaimed(self, raw: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(family, choice)`` of every word from its raw (default-mapped) symbol words.

        The inverse of :meth:`_reclaimed_value`.  An index past the last
        candidate reads as the last one, and a block without a stored
        selector reads selector 0.
        """
        shift = np.uint64(BITS_PER_WORD - self.reclaimed_bits)
        value = (raw >> shift).astype(np.uint16)
        fields = np.zeros(value.shape + (self.blocks_per_word,), dtype=np.uint8)
        if self.spec.rule == "cheapest":
            for block in range(self.blocks_per_word):
                fields[..., block] = (value >> (2 * block)) & 3
            return None, np.minimum(fields, len(self.candidates) - 1)
        top = self.reclaimed_bits - 1
        for block in range(min(self.blocks_per_word, top)):
            fields[..., block] = (value >> block) & 1
        family = (value >> top).astype(np.uint8)
        return family, family_choice(family, fields)

    def _decode_bytes(self, state_bytes: np.ndarray, aux: np.ndarray) -> np.ndarray:
        """Words of every line: compressed lines decoded and sign-extended, the rest raw.

        The reclaimed cells (and a data bit sharing a cell with them) hold
        default-mapped symbols, so they read through :func:`default_symbols`.
        """
        raw = default_symbols(state_bytes.view("<u8"))
        _, choice = self._read_reclaimed(raw)
        tables = inverse_byte_tables(self.candidates)
        coded = winner_bytes(tables, self._line_blocks(choice), state_bytes, self.block_bytes)
        keep = self.data_byte_mask.view("<u8")
        words = self.wlc.sign_extend((coded.view("<u8") & keep) | (raw & ~keep))
        return np.where(aux[:, :1] == FLAG_COMPRESSED_STATE, words, raw)
