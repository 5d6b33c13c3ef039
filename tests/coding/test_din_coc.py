"""Tests of the DIN and COC+4cosets baselines."""

import numpy as np
import pytest

from repro.coding.coc_cosets import COCFourCosetsEncoder, LAYOUT_16, LAYOUT_32
from repro.coding.din import (
    BCH_PARITY_BITS,
    DINEncoder,
    EXPANDED_BITS,
    LENGTH_HEADER_BITS,
    MAX_COMPRESSED_BITS,
    build_din_mapping,
)
from repro.coding.wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE
from repro.core.cosets import DEFAULT_MAPPING
from repro.core.errors import EncodingError
from repro.core.line import LineBatch
from repro.core.symbols import SYMBOLS_PER_LINE


class TestDINMapping:
    def test_mapping_shape_and_inverse(self):
        forward, inverse = build_din_mapping()
        assert forward.shape == (8,)
        assert len(set(forward.tolist())) == 8
        for value, pattern in enumerate(forward):
            assert inverse[pattern] == value

    def test_zero_maps_to_zero(self):
        forward, _ = build_din_mapping()
        assert forward[0] == 0

    def test_codewords_avoid_the_most_expensive_state(self):
        """The eight chosen 4-bit codewords never store a symbol in S4."""
        forward, _ = build_din_mapping()
        for pattern in forward:
            low = DEFAULT_MAPPING[pattern & 0b11]
            high = DEFAULT_MAPPING[(pattern >> 2) & 0b11]
            assert low != 3 and high != 3


class TestDINLayout:
    def test_budget_arithmetic(self):
        """Header + compressed payload expand into exactly 492 bits + 20 BCH bits."""
        payload = LENGTH_HEADER_BITS + MAX_COMPRESSED_BITS
        assert 4 * ((payload + 2) // 3) == EXPANDED_BITS
        assert EXPANDED_BITS + BCH_PARITY_BITS == 512

    def test_geometry(self):
        encoder = DINEncoder()
        assert encoder.aux_cells == 1
        assert encoder.total_cells == SYMBOLS_PER_LINE + 1


class TestDINBehaviour:
    def test_roundtrip_biased(self, biased_lines):
        encoder = DINEncoder()
        subset = biased_lines[:24]
        assert encoder.roundtrip(subset) == subset

    def test_roundtrip_random(self, random_lines):
        encoder = DINEncoder()
        subset = random_lines[:8]
        assert encoder.roundtrip(subset) == subset

    def test_flags_follow_compressibility(self, biased_lines):
        encoder = DINEncoder()
        subset = biased_lines[:24]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        flags = states[:, encoder.flag_cell_index]
        expected = np.where(sizes <= MAX_COMPRESSED_BITS, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE)
        assert np.array_equal(flags, expected)

    def test_encoded_payload_avoids_s4(self, biased_lines):
        """The expanded (3-to-4 coded) payload only uses the DIN codeword states.

        The BCH parity bits at the end of the line are excluded: they are not
        produced by the expansion table and may use any state.
        """
        encoder = DINEncoder()
        subset = biased_lines[:24]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        encoded_rows = np.nonzero(sizes <= MAX_COMPRESSED_BITS)[0]
        if encoded_rows.size:
            payload_cells = EXPANDED_BITS // 2
            assert states[encoded_rows, :payload_cells].max() <= 2


class TestCOCFourCosets:
    def test_geometry(self):
        encoder = COCFourCosetsEncoder()
        assert encoder.total_cells == SYMBOLS_PER_LINE + 1
        assert LAYOUT_16.data_cells == 224 and LAYOUT_16.num_blocks == 28
        assert LAYOUT_32.data_cells == 240 and LAYOUT_32.num_blocks == 15

    def test_layout_fits_within_line(self):
        for layout in (LAYOUT_16, LAYOUT_32):
            assert layout.data_cells + layout.aux_cells <= SYMBOLS_PER_LINE - 1

    def test_roundtrip_biased(self, biased_lines):
        encoder = COCFourCosetsEncoder()
        subset = biased_lines[:24]
        assert encoder.roundtrip(subset) == subset

    def test_roundtrip_random(self, random_lines):
        encoder = COCFourCosetsEncoder()
        subset = random_lines[:8]
        assert encoder.roundtrip(subset) == subset

    def test_compressed_fraction_high_on_biased_lines(self, biased_lines):
        encoder = COCFourCosetsEncoder()
        subset = biased_lines[:32]
        encoded = encoder.encode_batch(subset, subset)
        assert encoded.compressed.mean() > 0.5

    def test_mode_cell_distinguishes_granularities(self, biased_lines):
        encoder = COCFourCosetsEncoder()
        subset = biased_lines[:32]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        for i in range(len(subset)):
            if sizes[i] <= LAYOUT_16.budget_bits:
                assert states[i, encoder.MODE_CELL] == DEFAULT_MAPPING[LAYOUT_16.mode_symbol]
            elif sizes[i] <= LAYOUT_32.budget_bits:
                assert states[i, encoder.MODE_CELL] == DEFAULT_MAPPING[LAYOUT_32.mode_symbol]


def _din_reference_bits(encoder, lines):
    """The bit-matrix DIN payload: header | stream, 3-to-4 expansion, BCH parity."""
    packed = encoder.compressor.compress_batch(lines)
    n = len(lines)
    stream = np.unpackbits(
        np.ascontiguousarray(packed.words, dtype="<u8").view(np.uint8), axis=1, bitorder="little"
    )
    payload = np.zeros((n, LENGTH_HEADER_BITS + MAX_COMPRESSED_BITS), dtype=np.uint8)
    payload[:, :LENGTH_HEADER_BITS] = (packed.lengths[:, None] >> np.arange(LENGTH_HEADER_BITS)) & 1
    width = min(stream.shape[1], MAX_COMPRESSED_BITS)
    payload[:, LENGTH_HEADER_BITS : LENGTH_HEADER_BITS + width] = stream[:, :width]
    groups = payload.reshape(n, -1, 3)
    codewords = encoder.expand_table[groups[..., 0] | (groups[..., 1] << 1) | (groups[..., 2] << 2)]
    line_bits = np.zeros((n, 512), dtype=np.uint8)
    line_bits[:, :EXPANDED_BITS] = ((codewords[..., None] >> np.arange(4)) & 1).reshape(n, -1)
    line_bits[:, EXPANDED_BITS:] = encoder.bch.parity_batch(line_bits[:, :EXPANDED_BITS])
    return line_bits


class TestDINBytesMatchBitMatrix:
    """DIN's byte-table expansion and parity equal the per-bit construction."""

    def test_encoded_bytes(self, biased_lines):
        encoder = DINEncoder()
        sizes = encoder.compressor.sizes_bits(biased_lines)
        lines = LineBatch(biased_lines.words[sizes <= MAX_COMPRESSED_BITS][:64])
        assert len(lines) > 8
        expected = np.packbits(_din_reference_bits(encoder, lines), axis=1, bitorder="little")
        assert np.array_equal(encoder._encode_lines_bytes(lines), expected)
        assert np.array_equal(encoder._decode_lines_bytes(expected), lines.words)

    def test_corrupt_length_header_raises(self, biased_lines):
        encoder = DINEncoder()
        sizes = encoder.compressor.sizes_bits(biased_lines)
        lines = LineBatch(biased_lines.words[sizes <= MAX_COMPRESSED_BITS][:1])
        line_bits = _din_reference_bits(encoder, lines)
        # Three groups of 0b111 make the 9-bit length header 511 > 360.
        line_bits[:, :12] = np.tile((encoder.expand_table[0b111] >> np.arange(4)) & 1, 3)
        with pytest.raises(EncodingError):
            encoder._decode_lines_bytes(np.packbits(line_bits, axis=1, bitorder="little"))
