"""Per-cell decodes of the coset schemes and the baseline: the byte decode's oracle.

These are the ``decode_states`` bodies the line-scope coset encoders
(6/4/3cosets, FNW, 3-r-cosets), the WLC word-scope encoders (WLC+4cosets,
WLC+3cosets, WLCRC), FlipMin and the baseline ran before decoding moved onto
state bytes: every cell goes through its block's inverse mapping, picked
from an ``(n, cells, 4)`` array with ``take_along_axis`` (FlipMin: the
default inverse mapping, then the coset vector XORed onto the words).  They read the scheme's
geometry from its name and the paper's tables here, never from the encoder,
and each keeps the clamping of aux values no encoder writes: an index cell
past the last candidate reads as the last one, a two-cell pair outside the
cheapest pairs reads as candidate 0, a WLC index field past the last
candidate reads as the last one, and only a flag cell in S1 marks a
compressed line.
"""

import re
from itertools import product

import numpy as np

from repro.compression.wlc import WLCCompressor
from repro.core.cosets import (
    C1,
    C3,
    DEFAULT_MAPPING,
    FOUR_COSETS,
    SIX_COSETS,
    THREE_COSETS,
    flipmin_coset_vectors,
    invert_mapping,
)
from repro.core.line import LineBatch
from repro.core.symbols import SYMBOLS_PER_LINE, SYMBOLS_PER_WORD, WORDS_PER_LINE, symbols_to_words

#: FNW writes a block as is (C1) or complemented: the default state of
#: symbol ``3 - s`` is ``C3[s]``.
FNW_CANDIDATES = np.stack([C1, C3])
#: Candidates of every line-scope and word-scope coset scheme, by name prefix.
CANDIDATES = {
    "fnw": FNW_CANDIDATES,
    "6cosets": SIX_COSETS,
    "4cosets": FOUR_COSETS,
    "3cosets": THREE_COSETS,
    "3-r-cosets": THREE_COSETS,
    "wlc+4cosets": FOUR_COSETS,
    "wlc+3cosets": THREE_COSETS,
    "wlcrc": THREE_COSETS,
}
#: Reclaimed bits per word of each WLC scheme and granularity (Section IX-A).
RECLAIMED_BITS = {
    "wlc+4cosets": {8: 16, 16: 8, 32: 4, 64: 2},
    "wlc+3cosets": {8: 16, 16: 8, 32: 4, 64: 2},
    "wlcrc": {8: 8, 16: 5, 32: 3, 64: 2},
}
#: Candidate index of each (family, selector bit) of the restricted rule.
FAMILY_CANDIDATES = np.array([[0, 1], [0, 2]], dtype=np.uint8)
#: Flag-cell state of a compressed WLC line.
FLAG_COMPRESSED = 0

_INVERSE_DEFAULT = invert_mapping(DEFAULT_MAPPING)


def parse_scheme(name):
    """``(prefix, granularity_bits, endurance threshold or None)`` of a coset scheme name."""
    match = re.fullmatch(r"(.+?)-(\d+)(?:-mo([\d.]+))?", name)
    assert match, name
    prefix, bits, threshold = match.groups()
    return prefix, int(bits), None if threshold is None else float(threshold)


def pair_states(energy_model, count):
    """The ``count`` cheapest two-cell state pairs, cheapest first (ties by pair)."""
    weights = energy_model.write_energy_per_state
    pairs = sorted(product(range(4), repeat=2), key=lambda p: (weights[p[0]] + weights[p[1]], p))
    return np.array(pairs[:count], dtype=np.uint8)


def _aux_bits(states, nbits):
    """Bits packed two per cell under the default mapping, low bit first."""
    symbols = _INVERSE_DEFAULT[states]
    bits = np.stack([symbols & 1, (symbols >> 1) & 1], axis=-1)
    bits = bits.reshape(len(states), 2 * states.shape[1])
    return bits[:, :nbits].astype(np.uint8)


def _decode_cells(candidates, per_cell_choice, data_states):
    """Symbols of ``data_states`` through each cell's chosen candidate's inverse."""
    inverse = np.stack([invert_mapping(c) for c in candidates])[per_cell_choice]
    index = data_states[..., None].astype(np.intp)
    return np.take_along_axis(inverse, index, axis=-1)[..., 0].astype(np.uint8)


def decode_baseline(states):
    return LineBatch.from_symbols(_INVERSE_DEFAULT[states]).words


def decode_flipmin(states, num_cosets=16):
    """FlipMin: the index bits in the two appended cells pick the vector XORed back.

    An index past the last vector reads as the last one.
    """
    index_bits = (num_cosets - 1).bit_length()
    bits = _aux_bits(states[:, SYMBOLS_PER_LINE:], index_bits).astype(np.int64)
    index = np.clip((bits << np.arange(index_bits)).sum(axis=1), 0, num_cosets - 1)
    words = decode_baseline(states[:, :SYMBOLS_PER_LINE])
    return words ^ flipmin_coset_vectors(num_cosets)[index]


def decode_line_scope(prefix, granularity, energy_model, states):
    """6/4/3cosets, FNW and 3-r-cosets: per-block choices in appended cells."""
    candidates = CANDIDATES[prefix]
    data_states, aux = states[:, :SYMBOLS_PER_LINE], states[:, SYMBOLS_PER_LINE:]
    blocks, block_cells = 512 // granularity, granularity // 2
    if prefix == "fnw":
        choice = _aux_bits(aux, blocks)
    elif prefix == "3-r-cosets":
        bits = _aux_bits(aux, 1 + blocks)
        choice = FAMILY_CANDIDATES[bits[:, :1], bits[:, 1:]]
    elif len(candidates) > 4:
        lookup = np.zeros(16, dtype=np.uint8)
        pairs = pair_states(energy_model, len(candidates))
        lookup[pairs[:, 0] * 4 + pairs[:, 1]] = np.arange(len(candidates))
        pairs_read = aux[:, : 2 * blocks].reshape(len(states), blocks, 2)
        choice = lookup[pairs_read[..., 0] * 4 + pairs_read[..., 1]]
    else:
        choice = np.minimum(aux[:, :blocks], len(candidates) - 1)
    symbols = _decode_cells(candidates, np.repeat(choice, block_cells, axis=1), data_states)
    return LineBatch.from_symbols(symbols).words


def decode_word_scope(prefix, granularity, states):
    """WLC+4cosets, WLC+3cosets and WLCRC: per-word choices in the reclaimed bits."""
    n = len(states)
    candidates = CANDIDATES[prefix]
    reclaimed = RECLAIMED_BITS[prefix][granularity]
    wlc = WLCCompressor(k=reclaimed + 1)
    blocks, block_cells = 64 // granularity, granularity // 2
    data_region = SYMBOLS_PER_WORD - (reclaimed + 1) // 2
    data_states = states[:, :SYMBOLS_PER_LINE]
    compressed = states[:, SYMBOLS_PER_LINE] == FLAG_COMPRESSED
    raw_symbols = _INVERSE_DEFAULT[data_states]
    values = symbols_to_words(raw_symbols) >> np.uint64(64 - reclaimed)
    shifts = np.arange(blocks, dtype=np.uint64)
    if prefix == "wlcrc" and granularity < 64:
        top = reclaimed - 1
        family = ((values >> np.uint64(top)) & 1).astype(np.uint8)
        selector = ((values[..., None] >> shifts) & 1).astype(np.uint8)
        selector[..., top:] = 0
        choice = FAMILY_CANDIDATES[family[..., None], selector]
    else:
        index = (values[..., None] >> (shifts * 2)) & 3
        choice = np.minimum(index, len(candidates) - 1).astype(np.uint8)
    word_states = data_states.reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
    per_cell_choice = np.repeat(choice, block_cells, axis=2)
    decoded = _decode_cells(candidates, per_cell_choice, word_states)
    decoded[..., data_region:] = _INVERSE_DEFAULT[word_states[..., data_region:]]
    words = wlc.sign_extend(symbols_to_words(decoded.reshape(n, SYMBOLS_PER_LINE)))
    return np.where(compressed[:, None], words, symbols_to_words(raw_symbols))


def decode(name, energy_model, states):
    """The per-cell decode of scheme ``name`` (an encoder's ``name``)."""
    states = np.asarray(states, dtype=np.uint8)
    if name == "baseline":
        return decode_baseline(states)
    if name == "flipmin":
        return decode_flipmin(states)
    prefix, granularity, _ = parse_scheme(name)
    if prefix in RECLAIMED_BITS:
        return decode_word_scope(prefix, granularity, states)
    return decode_line_scope(prefix, granularity, energy_model, states)
