"""The byte-domain candidate search equals the per-cell float reference.

Every coset encoder prices its candidates with lookups over 4-cell state
bytes (:func:`repro.coding.base.block_costs`) and picks winners in bytes.
The reference here is the per-cell float64 search the encoders used before:
candidate cell states, one energy per cell (``weights[state]`` where the
cell changes), block sums, and the same selection rules.  For every coset
scheme the two must give identical ``(states, aux_mask, compressed,
encoded)`` on benchmark, random and adversarial lines, against both fresh
and reference-encoded stored states.
"""

import numpy as np
import pytest

from repro.coding import (
    COCFourCosetsEncoder,
    FlipMinEncoder,
    FNWEncoder,
    NCosetsEncoder,
    RestrictedCosetEncoder,
    WLCWordEncoderBase,
    block_costs,
    make_scheme,
    pack_bits_to_states,
)
from repro.coding.coc_cosets import LAYOUT_16, LAYOUT_32
from repro.coding.restricted import FAMILY_CANDIDATES
from repro.coding.wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE
from repro.core.cosets import DEFAULT_BYTE_TABLE, DEFAULT_MAPPING, apply_mapping, invert_mapping
from repro.core.energy import DEFAULT_ENERGY_MODEL, EnergyModel, figure14_energy_models
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.core.symbols import (
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    bits_to_symbols,
    complement_symbols,
    pack_state_bytes,
    words_to_symbols,
)
from repro.workloads.generator import generate_benchmark_trace

GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)
WLC_GRANULARITIES = (8, 16, 32, 64)
COSET_SCHEMES = (
    ["flipmin", "coc+4cosets"]
    + [f"fnw-{g}" for g in GRANULARITIES]
    + [f"{p}-{g}" for p in ("6cosets", "4cosets", "3cosets", "3-r-cosets") for g in GRANULARITIES]
    + [f"{p}-{g}" for p in ("wlc+4cosets", "wlc+3cosets", "wlcrc") for g in WLC_GRANULARITIES]
    + [f"wlcrc-{g}-mo" for g in WLC_GRANULARITIES]
)


# ---------------------------------------------------------------------- #
# Per-cell float reference
# ---------------------------------------------------------------------- #
def ref_block_costs(candidate_states, stored, energy_model, block_cells, active_cells=None):
    """``(k, n, blocks)`` per-cell float64 block energies; cells past ``active_cells`` cost 0."""
    k, n, cells = candidate_states.shape
    weights = energy_model.write_energy_per_state
    costs = np.empty((k, n, cells // block_cells))
    for index in range(k):
        per_cell = weights[candidate_states[index]] * (candidate_states[index] != stored)
        per_cell[:, cells if active_cells is None else active_cells:] = 0.0
        costs[index] = per_cell.reshape(n, -1, block_cells).sum(axis=-1)
    return costs


def ref_select(candidate_states, choice, block_cells):
    per_cell = np.repeat(choice, block_cells, axis=-1)
    stacked = np.moveaxis(candidate_states, 0, -1)
    return np.take_along_axis(stacked, per_cell[..., None].astype(np.intp), axis=-1)[..., 0]


def _appended_aux(n, data_states, aux_states, total_cells):
    states = np.concatenate([data_states, aux_states], axis=1).astype(np.uint8)
    aux_mask = np.zeros((n, total_cells), dtype=bool)
    aux_mask[:, SYMBOLS_PER_LINE:] = True
    return states, aux_mask, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)


def ref_ncosets(enc, lines, stored):
    candidates = enc.candidates[:, lines.symbols()]
    costs = ref_block_costs(candidates, stored[:, :256], enc.energy_model, enc.block_cells)
    choice = costs.argmin(axis=0).astype(np.uint8)
    data = ref_select(candidates, choice, enc.block_cells)
    return _appended_aux(len(lines), data, enc.aux_codec.encode(choice), enc.total_cells)


def ref_restricted(enc, lines, stored):
    candidates = enc.candidates[:, lines.symbols()]
    costs = ref_block_costs(candidates, stored[:, :256], enc.energy_model, enc.block_cells)
    family_costs = np.stack(
        [np.minimum(costs[0], costs[1]).sum(axis=-1), np.minimum(costs[0], costs[2]).sum(axis=-1)]
    )
    family = family_costs.argmin(axis=0).astype(np.uint8)
    alternative = np.where(family[:, None] == 0, costs[1], costs[2])
    selector = (alternative < costs[0]).astype(np.uint8)
    choice = FAMILY_CANDIDATES[family[:, None], selector]
    data = ref_select(candidates, choice, enc.block_cells)
    bits = np.concatenate([family[:, None], selector], axis=1).astype(np.uint8)
    return _appended_aux(len(lines), data, pack_bits_to_states(bits), enc.total_cells)


def ref_flipmin(enc, lines, stored):
    candidates = np.stack(
        [apply_mapping(DEFAULT_MAPPING, words_to_symbols(lines.words ^ v)) for v in enc.vectors]
    )
    costs = ref_block_costs(candidates, stored[:, :256], enc.energy_model, SYMBOLS_PER_LINE)
    choice = costs.argmin(axis=0)
    data = ref_select(candidates, choice, SYMBOLS_PER_LINE)
    index_bits = np.stack([(choice[:, 0] >> b) & 1 for b in range(enc.index_bits)], axis=1)
    return _appended_aux(len(lines), data, pack_bits_to_states(index_bits), enc.total_cells)


def ref_fnw(enc, lines, stored):
    symbols = lines.symbols()
    candidates = apply_mapping(DEFAULT_MAPPING, np.stack([symbols, complement_symbols(symbols)]))
    costs = ref_block_costs(candidates, stored[:, :256], enc.energy_model, enc.block_cells)
    choice = costs.argmin(axis=0).astype(np.uint8)
    data = ref_select(candidates, choice, enc.block_cells)
    return _appended_aux(len(lines), data, pack_bits_to_states(choice), enc.total_cells)


def ref_wlc(enc, lines, stored):
    n = len(lines)
    symbols = lines.symbols()
    compressible = enc.wlc.line_compressible(lines)
    word_symbols = symbols.reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
    stored_words = stored[:, :SYMBOLS_PER_LINE].reshape(n * WORDS_PER_LINE, SYMBOLS_PER_WORD)
    candidates = enc.candidates[:, word_symbols]
    k = candidates.shape[0]
    flat = candidates.reshape(k, n * WORDS_PER_LINE, SYMBOLS_PER_WORD)
    shape = (k, n, WORDS_PER_LINE, enc.blocks_per_word)
    active = enc.data_region_cells
    costs = ref_block_costs(flat, stored_words, enc.energy_model, enc.block_cells, active)
    changed = flat != stored_words
    changed[..., active:] = False
    flips = changed.reshape(k, n * WORDS_PER_LINE, -1, enc.block_cells).sum(axis=-1)
    inverse = invert_mapping(DEFAULT_MAPPING)
    aux_symbols = inverse[stored_words.reshape(n, WORDS_PER_LINE, -1)[..., active:]]
    shifts = np.arange(active, SYMBOLS_PER_WORD).astype(np.uint64) * np.uint64(2)
    partial = (aux_symbols.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)
    stored_aux = partial >> np.uint64(64 - enc.reclaimed_bits)
    choice, aux_values = enc._select_candidates(
        costs.reshape(shape), flips.astype(np.float64).reshape(shape), stored_aux
    )
    encoded = ref_select(candidates, choice, enc.block_cells)
    with_aux = words_to_symbols(enc.wlc.insert_reclaimed(lines.words, aux_values))
    with_aux = with_aux.reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
    encoded[..., active:] = apply_mapping(DEFAULT_MAPPING, with_aux[..., active:])
    encoded = encoded.reshape(n, SYMBOLS_PER_LINE)
    raw = apply_mapping(DEFAULT_MAPPING, symbols)
    data = np.where(compressible[:, None], encoded, raw).astype(np.uint8)
    flag = np.where(compressible, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
    aux_mask = np.zeros((n, enc.total_cells), dtype=bool)
    line_aux = np.tile(enc.word_aux_mask(), WORDS_PER_LINE)
    aux_mask[:, :SYMBOLS_PER_LINE] = compressible[:, None] & line_aux
    aux_mask[:, enc.flag_cell_index] = True
    states = np.concatenate([data, flag[:, None]], axis=1)
    return states, aux_mask, compressible, compressible.copy()


def ref_coc(enc, lines, stored):
    n = len(lines)
    data = apply_mapping(DEFAULT_MAPPING, lines.symbols())
    member_sizes = enc.compressor.member_sizes(lines)
    sizes = enc.compressor.sizes_from_members(member_sizes)
    mode16 = sizes <= LAYOUT_16.budget_bits
    mode32 = ~mode16 & (sizes <= LAYOUT_32.budget_bits)
    compressible = mode16 | mode32
    aux_mask = np.zeros((n, enc.total_cells), dtype=bool)
    for layout, mode in ((LAYOUT_16, mode16), (LAYOUT_32, mode32)):
        rows = np.nonzero(mode)[0]
        if not rows.size:
            continue
        packed = enc.compressor.compress_batch(
            LineBatch(lines.words[rows]), member_sizes=member_sizes[:, rows]
        )
        bits = np.zeros((rows.size, 512), dtype=np.uint8)
        bits[:, : min(packed.bits.shape[1], 512)] = packed.bits[:, :512]
        payload = bits_to_symbols(bits)[:, : layout.data_cells]
        candidates = enc.candidates[:, payload]
        group_stored = stored[rows, : layout.data_cells]
        costs = ref_block_costs(candidates, group_stored, enc.energy_model, layout.block_cells)
        choice = costs.argmin(axis=0).astype(np.uint8)
        choice_bits = np.zeros((rows.size, layout.aux_bits), dtype=np.uint8)
        choice_bits[:, 0::2] = choice & 1
        choice_bits[:, 1::2] = (choice >> 1) & 1
        aux_states = pack_bits_to_states(choice_bits)
        group = np.zeros((rows.size, SYMBOLS_PER_LINE), dtype=np.uint8)
        group[:, : layout.data_cells] = ref_select(candidates, choice, layout.block_cells)
        group[:, layout.data_cells : layout.data_cells + aux_states.shape[1]] = aux_states
        group[:, enc.MODE_CELL] = DEFAULT_MAPPING[layout.mode_symbol]
        data[rows] = group
        aux_mask[rows, layout.data_cells:SYMBOLS_PER_LINE] = True
    flag = np.where(compressible, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
    aux_mask[:, enc.flag_cell_index] = True
    states = np.concatenate([data, flag[:, None]], axis=1)
    return states, aux_mask, compressible, compressible.copy()


REFERENCES = (
    (RestrictedCosetEncoder, ref_restricted),
    (NCosetsEncoder, ref_ncosets),
    (FlipMinEncoder, ref_flipmin),
    (FNWEncoder, ref_fnw),
    (WLCWordEncoderBase, ref_wlc),
    (COCFourCosetsEncoder, ref_coc),
)


def reference_encode(encoder, lines, stored):
    for cls, reference in REFERENCES:
        if isinstance(encoder, cls):
            return reference(encoder, lines, stored)
    raise AssertionError(f"no reference for {encoder.name}")


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def write_requests():
    """``(old, new)`` batches: benchmark, random and adversarial lines."""
    rng = np.random.default_rng(2024)
    trace = generate_benchmark_trace("gcc", length=48, seed=5)
    patterns = np.array(
        [[0] * 8, [2**64 - 1] * 8, [0xAAAA_AAAA_AAAA_AAAA] * 8, [0x5555_5555_5555_5555] * 8],
        dtype=np.uint64,
    )
    new = np.concatenate([trace.new.words, LineBatch.random(16, rng).words, patterns])
    old = np.concatenate([trace.old.words, LineBatch.random(16, rng).words, patterns[::-1]])
    single_bit = new[:24].copy()
    bits = rng.integers(0, 64, 24).astype(np.uint64)
    single_bit[np.arange(24), np.arange(24) % 8] ^= np.uint64(1) << bits
    new = np.concatenate([new, single_bit, new[:12]])
    old = np.concatenate([old, new[:24], new[:12]])  # single-bit deltas, then old == new
    return LineBatch(old), LineBatch(new)


def _assert_same(got, expected):
    for name, a, b in zip(("states", "aux_mask", "compressed", "encoded"), got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


# ---------------------------------------------------------------------- #
# Byte path == per-cell reference
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", COSET_SCHEMES)
def test_byte_path_matches_reference_on_fresh_cells(scheme, write_requests):
    encoder = make_scheme(scheme)
    _, new = write_requests
    fresh = encoder.fresh_states(len(new))
    expected = reference_encode(encoder, new, fresh)
    _assert_same(encoder._encode_against_states(new, fresh), expected)


@pytest.mark.parametrize("scheme", COSET_SCHEMES)
def test_byte_path_matches_reference_on_stored_cells(scheme, write_requests):
    encoder = make_scheme(scheme)
    old, new = write_requests
    stored = reference_encode(encoder, old, encoder.fresh_states(len(old)))[0]
    expected = reference_encode(encoder, new, stored)
    _assert_same(encoder._encode_against_states(new, stored), expected)


@pytest.mark.parametrize(
    "model", figure14_energy_models(), ids=lambda m: f"s3-{m.set_energy_pj[2]:g}"
)
@pytest.mark.parametrize(
    "scheme", ["flipmin", "fnw", "6cosets-16", "coc+4cosets", "wlcrc-16", "wlcrc-16-mo"]
)
def test_byte_path_matches_reference_under_figure14_models(scheme, model, write_requests):
    encoder = make_scheme(scheme, model)
    old, new = write_requests
    stored = reference_encode(encoder, old, encoder.fresh_states(len(old)))[0]
    expected = reference_encode(encoder, new, stored)
    _assert_same(encoder._encode_against_states(new, stored), expected)


# ---------------------------------------------------------------------- #
# Exactness contract
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("model", (DEFAULT_ENERGY_MODEL,) + figure14_energy_models())
def test_shipped_models_are_integral(model):
    assert model.is_integral
    table = model.byte_cost_table
    assert table.dtype == np.uint16
    # The most a 64-byte line can cost is far below 2**53: float sums stay exact.
    assert int(table.max()) * 64 < 2**53


def test_default_mapping_is_linear_over_gf2():
    """FlipMin maps ``line ^ vector`` as the XOR of the two mapped bytes."""
    every = np.arange(256, dtype=np.uint8)
    mapped = DEFAULT_BYTE_TABLE[every]
    assert np.array_equal(DEFAULT_BYTE_TABLE[every[:, None] ^ every], mapped[:, None] ^ mapped)


def test_byte_cost_table_is_built_once():
    assert DEFAULT_ENERGY_MODEL.byte_cost_table is EnergyModel().byte_cost_table


def test_non_integral_model_costs_match_reference_closely():
    model = EnergyModel(reset_energy_pj=36.3, set_energy_pj=(0.0, 20.7, 307.1, 547.9))
    assert not model.is_integral
    assert model.byte_cost_table.dtype == np.float64
    rng = np.random.default_rng(3)
    candidates = rng.integers(0, 4, size=(3, 20, SYMBOLS_PER_LINE), dtype=np.uint8)
    stored = rng.integers(0, 4, size=(20, SYMBOLS_PER_LINE), dtype=np.uint8)
    candidate_bytes, stored_bytes = pack_state_bytes(candidates), pack_state_bytes(stored)
    for block_cells in (4, 32, 256):
        got = block_costs(candidate_bytes, stored_bytes, model, block_cells // 4)
        expected = ref_block_costs(candidates, stored, model, block_cells)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize(
    "scheme", ["6cosets-2", "4cosets-4", "3cosets-2", "3-r-cosets-4", "fnw-2", "fnw-4"]
)
def test_sub_byte_granularities_are_rejected(scheme):
    with pytest.raises(ConfigurationError):
        make_scheme(scheme)
