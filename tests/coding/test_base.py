"""Tests of the encoder base class and shared helpers."""

import numpy as np
import pytest

from repro.coding.base import (
    EncodedBatch,
    block_sums,
    candidate_byte_tables,
    candidate_costs,
    cheapest,
    cost_index,
    pack_bits_to_states,
    unpack_states_to_bits,
    winner_bytes,
)
from repro.coding.baseline import BaselineEncoder
from repro.coding.registry import available_schemes, make_scheme
from repro.core.cosets import (
    C1,
    C2,
    DEFAULT_BYTE_TABLE,
    FOUR_COSETS,
    invert_mapping,
    mapping_byte_table,
)
from repro.core.energy import DEFAULT_ENERGY_MODEL, REWRITE_COUNT_MODEL
from repro.core.errors import EncodingError
from repro.core.symbols import pack_state_bytes


class TestBitStatePacking:
    def test_roundtrip(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=np.uint8)
        states = pack_bits_to_states(bits)
        assert states.shape == (1, 4)  # 7 bits -> 4 cells (padded)
        recovered = unpack_states_to_bits(states, 7)
        assert np.array_equal(recovered, bits)

    def test_zero_bits_use_cheapest_state(self):
        states = pack_bits_to_states(np.zeros((1, 4), dtype=np.uint8))
        assert (states == 0).all()  # symbol 00 -> S1 under the default mapping

    def test_requires_2d(self):
        with pytest.raises(EncodingError):
            pack_bits_to_states(np.zeros(4, dtype=np.uint8))


class TestBlockSelection:
    def test_select_block_bytes(self):
        tables = candidate_byte_tables(np.stack([C1, C2]))
        data = np.arange(8, dtype=np.uint8)[None]
        choice = np.array([[0, 1, 1, 0]], dtype=np.uint8)  # four 2-byte blocks
        c1, c2 = mapping_byte_table(C1)[data[0]], mapping_byte_table(C2)[data[0]]
        expected = np.concatenate([c1[:2], c2[2:6], c1[6:]])
        assert winner_bytes(tables, choice, data, 2).tolist() == [expected.tolist()]

    def test_select_rejects_bad_choice_shape(self):
        tables = candidate_byte_tables(np.stack([C1, C2]))
        data = np.zeros((1, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            winner_bytes(tables, np.zeros((1, 3), dtype=np.uint8), data, 2)

    def test_block_byte_costs(self):
        # One line of 8 cells (2 bytes) over S1 cells: C1 writes symbols 00 as
        # S1 (free) and symbols 01 as S4; C2 maps 11 to S1 and 00 to S2.
        data = pack_state_bytes(np.array([[0, 0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8))
        stored = np.zeros((1, 2), dtype=np.uint8)
        index = cost_index(stored, data)
        candidates = np.stack([C1, C2])
        costs = candidate_costs(DEFAULT_ENERGY_MODEL, candidates, index, 1)
        assert costs.shape == (2, 1, 2)
        assert costs.dtype == np.int32
        assert costs[0, 0].tolist() == [0, 4 * 583]  # unchanged cells cost nothing
        assert costs[1, 0].tolist() == [4 * 56, 4 * 583]
        blocks = candidate_costs(DEFAULT_ENERGY_MODEL, candidates, index, 2)
        assert blocks[:, 0, 0].tolist() == [4 * 583, 4 * 56 + 4 * 583]

    def test_block_rewrite_counts(self):
        stored = np.zeros((1, 2), dtype=np.uint8)
        # Symbols written under C1 as states S1, S2, S3, S1 | S1, S1, S1, S4.
        data = pack_state_bytes(invert_mapping(C1)[np.array([[0, 1, 2, 0, 0, 0, 0, 3]])])
        flips = candidate_costs(REWRITE_COUNT_MODEL, C1[None], cost_index(stored, data), 1)
        assert flips[0, 0].tolist() == [2, 1]

    def test_block_sums_are_exact_int32(self):
        byte_costs = np.full((1, 64), 65535, dtype=np.uint16)
        sums = block_sums(byte_costs, 64)
        assert sums.dtype == np.int32 and sums.tolist() == [[64 * 65535]]
        assert block_sums(byte_costs.astype(np.float64), 64).tolist() == [[64.0 * 65535]]

    def test_cheapest_lowest_index_wins_ties(self):
        costs = np.array([[[5, 3, 4]], [[5, 2, 4]], [[1, 2, 4]]], dtype=np.int32)
        assert cheapest(costs).tolist() == [[2, 1, 0]]
        assert np.array_equal(cheapest(costs), costs.argmin(axis=0))

    def test_cheapest_prefers_the_stored_candidate_on_ties(self):
        costs = np.array([[[5, 3, 4]], [[5, 2, 4]], [[1, 2, 4]]], dtype=np.int32)
        stored = np.array([[1, 2, 2]], dtype=np.uint8)
        assert cheapest(costs, stored).tolist() == [[2, 2, 2]]
        assert stored.tolist() == [[1, 2, 2]]  # not written through

    def test_candidate_byte_tables_are_flat(self):
        tables = candidate_byte_tables(FOUR_COSETS)
        assert tables.shape == (4 * 256,) and tables.dtype == np.uint8
        assert np.array_equal(tables[:256], DEFAULT_BYTE_TABLE)


def _batch(n=2, appended=1, **fields):
    """An all-zero :class:`EncodedBatch` of ``n`` lines with ``fields`` replaced."""
    values = dict(
        data=np.zeros((n, 64), dtype=np.uint8),
        aux=np.zeros((n, appended), dtype=np.uint8),
        aux_bytes=None,
        compressed=np.zeros(n, dtype=bool),
        encoded=np.zeros(n, dtype=bool),
        old_data=np.zeros((n, 64), dtype=np.uint8),
        old_aux=np.zeros((n, appended), dtype=np.uint8),
    )
    values.update(fields)
    return EncodedBatch(**values)


#: Per field, values of the wrong shape or dtype for a 2-line, 1-aux-cell batch.
BAD_FIELDS = [
    ("data", np.zeros((2, 63), dtype=np.uint8)),
    ("data", np.zeros((2, 64), dtype=np.uint16)),
    ("data", np.zeros((2, 256), dtype=np.uint8)),
    ("aux", np.zeros((2,), dtype=np.uint8)),
    ("aux", np.zeros((3, 1), dtype=np.uint8)),
    ("aux", np.zeros((2, 1), dtype=bool)),
    ("aux_bytes", np.zeros((2, 64), dtype=bool)),
    ("aux_bytes", np.zeros((2, 257), dtype=np.uint8)),
    ("compressed", np.zeros(3, dtype=bool)),
    ("compressed", np.zeros(2, dtype=np.uint8)),
    ("compressed", np.zeros((2, 1), dtype=bool)),
    ("encoded", np.zeros(1, dtype=bool)),
    ("encoded", np.zeros(2, dtype=np.int64)),
    ("encoded", [False, False]),
    ("old_data", np.zeros((1, 64), dtype=np.uint8)),
    ("old_data", np.zeros((2, 64), dtype=np.int8)),
    ("old_aux", np.zeros((2, 2), dtype=np.uint8)),
    ("old_aux", np.zeros((2, 1), dtype=np.uint16)),
]


class TestEncodedBatch:
    def test_changed_and_total_cells(self):
        # Cells 0..3 of line 0 are S1, S2, S3, S1 over S1, S1, S3, S1: only cell 1 changes.
        data = np.zeros((1, 64), dtype=np.uint8)
        data[0, 0] = 0b00_10_01_00
        old_data = np.zeros((1, 64), dtype=np.uint8)
        old_data[0, 0] = 0b00_10_00_00
        batch = _batch(1, 1, data=data, old_data=old_data, aux=np.array([[3]], dtype=np.uint8))
        changed = batch.changed
        assert changed.shape == (1, 257) and batch.total_cells == 257
        assert np.flatnonzero(changed[0]).tolist() == [1, 256]
        assert batch.states[0, :4].tolist() == [0, 1, 2, 0]
        assert batch.old_states[0, :4].tolist() == [0, 0, 2, 0]
        assert batch.states[0, 256] == 3 and batch.old_states[0, 256] == 0

    def test_shape_validation(self):
        with pytest.raises(EncodingError):
            _batch(old_data=np.zeros((2, 32), dtype=np.uint8))
        with pytest.raises(EncodingError):
            _batch(old_aux=np.zeros((2, 2), dtype=np.uint8))

    @pytest.mark.parametrize(
        "name,value", BAD_FIELDS, ids=[f"{name}-{i}" for i, (name, _) in enumerate(BAD_FIELDS)]
    )
    def test_every_field_is_checked(self, name, value):
        with pytest.raises(EncodingError, match=name):
            _batch(**{name: value})

    def test_aux_mask_view(self):
        aux_bytes = np.zeros((2, 64), dtype=np.uint8)
        aux_bytes[1, 63] = 0b11_00_00_00  # cell 255 of line 1
        mask = _batch(aux_bytes=aux_bytes).aux_mask
        assert mask.shape == (2, 257) and mask.dtype == bool
        assert np.flatnonzero(mask[0]).tolist() == [256]
        assert np.flatnonzero(mask[1]).tolist() == [255, 256]
        assert not _batch(appended=0).aux_mask.any()

    def test_cell_views_are_read_only(self):
        batch = _batch()
        for view in (batch.states, batch.old_states, batch.aux_mask, batch.changed):
            with pytest.raises(ValueError):
                view[0, 0] = 1

    @pytest.mark.parametrize("aux_bytes", [None, np.arange(5 * 64, dtype=np.uint8).reshape(5, 64)])
    def test_window_slices_the_byte_fields(self, aux_bytes):
        rng = np.random.default_rng(4)
        batch = _batch(
            5,
            2,
            data=rng.integers(0, 256, (5, 64), dtype=np.uint8),
            aux=rng.integers(0, 4, (5, 2), dtype=np.uint8),
            aux_bytes=aux_bytes,
            compressed=rng.random(5) < 0.5,
            encoded=rng.random(5) < 0.5,
            old_data=rng.integers(0, 256, (5, 64), dtype=np.uint8),
            old_aux=rng.integers(0, 4, (5, 2), dtype=np.uint8),
        )
        window = batch.window(1, 4)
        assert len(window) == 3
        for name in ("data", "aux", "aux_bytes", "compressed", "encoded", "old_data", "old_aux"):
            value, whole = getattr(window, name), getattr(batch, name)
            if whole is None:
                assert value is None
            else:
                assert np.shares_memory(value, whole) and np.array_equal(value, whole[1:4])
        for view in ("states", "old_states", "aux_mask", "changed"):
            assert np.array_equal(getattr(window, view), getattr(batch, view)[1:4])

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_at_most_300_bytes_per_line(self, scheme, biased_lines):
        encoder = make_scheme(scheme)
        lines = biased_lines[:64]
        batch = encoder.encode_batch(lines, biased_lines[64:128])
        arrays = [value for value in vars(batch).values() if value is not None]
        assert sum(value.nbytes for value in arrays) / len(batch) <= 300
        assert batch.total_cells == encoder.total_cells


class TestWriteEncoderInterface:
    def test_encode_batch_length_mismatch(self, biased_lines):
        encoder = BaselineEncoder()
        with pytest.raises(EncodingError):
            encoder.encode_batch(biased_lines[:3], biased_lines[:4])

    def test_encode_against_stored_shape_check(self, biased_lines):
        encoder = BaselineEncoder()
        with pytest.raises(EncodingError):
            encoder.encode_against_stored(biased_lines[:2], np.zeros((2, 10), dtype=np.uint8))

    def test_fresh_states_are_reset(self):
        encoder = BaselineEncoder()
        fresh = encoder.fresh_states(3)
        assert fresh.shape == (3, encoder.total_cells)
        assert (fresh == 0).all()

    def test_encode_reference_is_deterministic(self, biased_lines):
        encoder = BaselineEncoder()
        a = encoder.encode_reference(biased_lines[:5])
        b = encoder.encode_reference(biased_lines[:5])
        assert np.array_equal(a, b)
