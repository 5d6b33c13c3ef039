"""The byte-domain candidate search equals the per-cell float reference.

Every coset encoder prices a candidate with one lookup per 4-cell byte into
a composed table (:meth:`repro.core.energy.EnergyModel.candidate_cost_table`)
at a shared ``stored << 8 | data`` index, sums blocks in ``int32`` and picks
winners in bytes.  The reference here is the per-cell float64 search the
encoders used before: candidate cell states, one energy per cell
(``weights[state]`` where the cell changes), block sums, and the same
selection rules.  For every coset scheme the two must give identical
``(states, aux_mask, compressed, encoded)`` on benchmark, random and
adversarial lines, against both fresh and reference-encoded stored states;
the WLC family also on batches with no, only, one or zero compressible
lines.
"""

import pickle

import numpy as np
import pytest

from repro.coding import (
    COCFourCosetsEncoder,
    FlipMinEncoder,
    FNWEncoder,
    NCosetsEncoder,
    RestrictedCosetEncoder,
    WLCWordEncoderBase,
    available_schemes,
    candidate_costs,
    cost_index,
    make_scheme,
    pack_bits_to_states,
)
from repro.coding.coc_cosets import LAYOUT_16, LAYOUT_32
from repro.coding.fnw import FNW_CANDIDATES
from repro.coding.restricted import FAMILY_CANDIDATES
from repro.coding.wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE
from repro.core.cosets import (
    C1,
    C3,
    DEFAULT_BYTE_TABLE,
    DEFAULT_MAPPING,
    FOUR_COSETS,
    SIX_COSETS,
    apply_mapping,
    invert_mapping,
    mapping_byte_table,
)
from repro.core.energy import (
    DEFAULT_ENERGY_MODEL,
    REWRITE_COUNT_MODEL,
    EnergyModel,
    _candidate_cost_table,
    figure14_energy_models,
)
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.core.symbols import (
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
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
WLC_SCHEMES = [scheme for scheme in COSET_SCHEMES if scheme.startswith(("wlc", "wlcrc"))]
#: Every candidate mapping a registered coset encoder searches.
CANDIDATE_MAPPINGS = np.unique(np.concatenate([FOUR_COSETS, SIX_COSETS, FNW_CANDIDATES]), axis=0)
MODELS = (DEFAULT_ENERGY_MODEL, REWRITE_COUNT_MODEL) + figure14_energy_models()


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
        costs[index] = per_cell.reshape(n, cells // block_cells, block_cells).sum(axis=-1)
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


def ref_wlc_costs(enc, lines, stored):
    """Candidate cell states, and ``(k, n, 8, blocks)`` energies and rewrite
    counts of every word block in which only the data-region cells count."""
    n = len(lines)
    word_symbols = lines.symbols().reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
    stored_words = stored[:, :SYMBOLS_PER_LINE].reshape(n * WORDS_PER_LINE, SYMBOLS_PER_WORD)
    candidates = enc.candidates[:, word_symbols]
    k = candidates.shape[0]
    flat = candidates.reshape(k, n * WORDS_PER_LINE, SYMBOLS_PER_WORD)
    shape = (k, n, WORDS_PER_LINE, enc.blocks_per_word)
    active = enc.data_region_cells
    costs = ref_block_costs(flat, stored_words, enc.energy_model, enc.block_cells, active)
    changed = flat != stored_words
    changed[..., active:] = False
    blocks = (k, n * WORDS_PER_LINE, enc.blocks_per_word, enc.block_cells)
    flips = changed.reshape(blocks).sum(axis=-1)
    return candidates, costs.reshape(shape), flips.astype(np.float64).reshape(shape)


def ref_wlc(enc, lines, stored):
    n = len(lines)
    symbols = lines.symbols()
    compressible = enc.wlc.line_compressible(lines)
    candidates, costs, flips = ref_wlc_costs(enc, lines, stored)
    active = enc.data_region_cells
    inverse = invert_mapping(DEFAULT_MAPPING)
    stored_words = stored[:, :SYMBOLS_PER_LINE].reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
    aux_symbols = inverse[stored_words[..., active:]]
    shifts = np.arange(active, SYMBOLS_PER_WORD).astype(np.uint64) * np.uint64(2)
    partial = (aux_symbols.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)
    stored_aux = partial >> np.uint64(64 - enc.reclaimed_bits)
    choice, aux_values = enc._select_candidates(costs, flips, stored_aux)
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
        words = np.zeros((rows.size, 8), dtype=np.uint64)
        words[:, : min(packed.words.shape[1], 8)] = packed.words[:, :8]
        payload = LineBatch(words).symbols()[:, : layout.data_cells]
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
    assert model.candidate_cost_table(C1).dtype == np.float64
    rng = np.random.default_rng(3)
    symbols = rng.integers(0, 4, size=(20, SYMBOLS_PER_LINE), dtype=np.uint8)
    stored = rng.integers(0, 4, size=(20, SYMBOLS_PER_LINE), dtype=np.uint8)
    index = cost_index(pack_state_bytes(stored), pack_state_bytes(symbols))
    for block_cells in (4, 32, 256):
        got = candidate_costs(model, FOUR_COSETS, index, block_cells // 4)
        expected = ref_block_costs(FOUR_COSETS[:, symbols], stored, model, block_cells)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)


# ---------------------------------------------------------------------- #
# Composed candidate cost tables
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "model", MODELS, ids=lambda m: f"r{m.reset_energy_pj:g}-s3-{m.set_energy_pj[2]:g}"
)
def test_candidate_table_composes_byte_cost_table(model):
    every = np.arange(1 << 16)
    stored, data = every >> 8, every & 0xFF
    for mapping in CANDIDATE_MAPPINGS:
        table = model.candidate_cost_table(mapping)
        assert table.dtype == model.byte_cost_table.dtype == np.uint16
        expected = model.byte_cost_table[stored << 8 | mapping_byte_table(mapping)[data]]
        assert np.array_equal(table, expected)


def test_fnw_candidates_are_default_and_complement():
    symbols = np.arange(4)
    assert np.array_equal(FNW_CANDIDATES, np.stack([C1, C3]))
    assert np.array_equal(DEFAULT_MAPPING[3 - symbols], C3[symbols])


@pytest.mark.parametrize("scheme", WLC_SCHEMES)
def test_masked_index_prices_reclaimed_cells_as_kept(scheme):
    """Clearing the reclaimed cells and filling each candidate's S1 symbol
    costs every byte what the candidate byte keeping the stored bits did."""
    encoder = make_scheme(scheme)
    keep = encoder.data_byte_mask
    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, size=(40, 64), dtype=np.uint8)
    stored = rng.integers(0, 256, size=(40, 64), dtype=np.uint8)
    stored[-2:] = [[0x00], [0xFF]]  # all-S1 and all-S4 stored bytes
    index = cost_index(stored & keep, data & keep)
    for model in (DEFAULT_ENERGY_MODEL, REWRITE_COUNT_MODEL):
        for mapping, fill in zip(encoder.candidates, encoder.reclaimed_fills):
            kept = (mapping_byte_table(mapping)[data] & keep) | (stored & ~keep)
            expected = model.byte_cost_table.take(cost_index(stored, kept))
            assert np.array_equal(model.candidate_cost_table(mapping).take(index | fill), expected)


@pytest.mark.parametrize("scheme", WLC_SCHEMES)
def test_wlc_search_prices_reclaimed_cells_at_zero(scheme, write_requests, monkeypatch):
    """The block costs (and rewrite counts) a WLC encoder selects on are the
    per-cell reference's for its compressible lines: reclaimed cells cost 0."""
    encoder = make_scheme(scheme)
    old, new = write_requests
    stored = reference_encode(encoder, old, encoder.fresh_states(len(old)))[0]
    seen = []
    select = encoder._select_candidates

    def spy(block_costs, block_flips, stored_aux_values):
        seen.append((block_costs, block_flips))
        return select(block_costs, block_flips, stored_aux_values)

    monkeypatch.setattr(encoder, "_select_candidates", spy)
    encoder._encode_against_states(new, stored)
    (costs, flips), = seen
    rows = encoder.wlc.line_compressible(new)
    _, expected_costs, expected_flips = ref_wlc_costs(encoder, new, stored)
    assert np.array_equal(costs, expected_costs[:, rows])
    if encoder.counts_rewrites:
        assert np.array_equal(flips, expected_flips[:, rows])


def test_candidate_tables_are_read_only_and_built_once():
    model = EnergyModel()
    before = _candidate_cost_table.cache_info().misses
    first = DEFAULT_ENERGY_MODEL.candidate_cost_table(FOUR_COSETS[1])
    assert model.candidate_cost_table(FOUR_COSETS[1].copy()) is first
    assert _candidate_cost_table.cache_info().misses - before <= 1
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1


@pytest.mark.parametrize("scheme", available_schemes())
def test_encoding_leaves_the_pickled_encoder_unchanged(scheme, write_requests):
    """Cost tables are module-level caches, never encoder attributes: the
    encoder pickled into every worker task does not grow by encoding."""
    encoder = make_scheme(scheme)
    size = len(pickle.dumps(encoder))
    old, new = write_requests
    encoder.encode_batch(new, old)
    assert len(pickle.dumps(encoder)) == size


# ---------------------------------------------------------------------- #
# WLC edge batches: the search runs on compressible lines only
# ---------------------------------------------------------------------- #
EDGE_BATCHES = ("none-compressible", "all-compressible", "single-line", "empty")


def _wlc_edge_batch(kind):
    rng = np.random.default_rng(17)
    lines = generate_benchmark_trace("mcf", length=24, seed=9).new.words
    # Top 20 bits all-0 or all-1 per word: compressible for every WLC scheme.
    low = lines & np.uint64((1 << 44) - 1)
    ones = rng.integers(0, 2, size=low.shape).astype(bool)
    compressible = np.where(ones, low | np.uint64(((1 << 20) - 1) << 44), low)
    random = LineBatch.random(12, rng).words
    random[:, 0] |= np.uint64(1) << np.uint64(63)
    random[:, 0] &= ~(np.uint64(1) << np.uint64(62))  # top bits differ: never compressible
    batches = {
        "none-compressible": random,
        "all-compressible": compressible,
        "single-line": lines[:1],
        "empty": lines[:0],
    }
    return LineBatch(batches[kind])


@pytest.mark.parametrize("kind", EDGE_BATCHES)
@pytest.mark.parametrize("scheme", WLC_SCHEMES)
def test_wlc_edge_batch_matches_reference_on_fresh_cells(scheme, kind):
    encoder = make_scheme(scheme)
    new = _wlc_edge_batch(kind)
    expected_compressible = {"none-compressible": False, "all-compressible": True}.get(kind)
    if expected_compressible is not None:
        assert (encoder.wlc.line_compressible(new) == expected_compressible).all()
    fresh = encoder.fresh_states(len(new))
    expected = reference_encode(encoder, new, fresh)
    _assert_same(encoder._encode_against_states(new, fresh), expected)


@pytest.mark.parametrize("kind", EDGE_BATCHES)
@pytest.mark.parametrize("scheme", WLC_SCHEMES)
def test_wlc_edge_batch_matches_reference_on_stored_cells(scheme, kind, write_requests):
    encoder = make_scheme(scheme)
    new = _wlc_edge_batch(kind)
    old = LineBatch(write_requests[0].words[: len(new)])
    stored = reference_encode(encoder, old, encoder.fresh_states(len(old)))[0]
    expected = reference_encode(encoder, new, stored)
    _assert_same(encoder._encode_against_states(new, stored), expected)


@pytest.mark.parametrize(
    "scheme", ["6cosets-2", "4cosets-4", "3cosets-2", "3-r-cosets-4", "fnw-2", "fnw-4"]
)
def test_sub_byte_granularities_are_rejected(scheme):
    with pytest.raises(ConfigurationError):
        make_scheme(scheme)
