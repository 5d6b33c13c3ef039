"""Tests of the word / symbol / byte / bit packing layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import symbols as sym


def _random_words(rng, n=16):
    return rng.integers(0, 2**64, size=(n, sym.WORDS_PER_LINE), dtype=np.uint64)


class TestConstants:
    def test_line_geometry(self):
        assert sym.BITS_PER_LINE == 512
        assert sym.WORDS_PER_LINE * sym.BITS_PER_WORD == sym.BITS_PER_LINE
        assert sym.SYMBOLS_PER_LINE * 2 == sym.BITS_PER_LINE
        assert sym.SYMBOLS_PER_WORD * sym.WORDS_PER_LINE == sym.SYMBOLS_PER_LINE
        assert sym.BYTES_PER_LINE == 64


class TestWordSymbolConversion:
    def test_roundtrip_random(self, rng):
        words = _random_words(rng)
        assert np.array_equal(sym.symbols_to_words(sym.words_to_symbols(words)), words)

    def test_symbol_values_in_range(self, rng):
        symbols = sym.words_to_symbols(_random_words(rng))
        assert symbols.dtype == np.uint8
        assert symbols.min() >= 0 and symbols.max() <= 3

    def test_symbol_ordering_lsb_first(self):
        # Word 0 = 0b...1110 01: symbol 0 holds bits (1, 0) = '01' = 1,
        # symbol 1 holds bits (3, 2) = '11' = 3.
        words = np.zeros((1, 8), dtype=np.uint64)
        words[0, 0] = 0b1101
        symbols = sym.words_to_symbols(words)[0]
        assert symbols[0] == 1
        assert symbols[1] == 3
        assert symbols[2] == 0

    def test_word_major_layout(self):
        words = np.zeros((1, 8), dtype=np.uint64)
        words[0, 3] = 0b10  # symbol 0 of word 3 = '10' = 2
        symbols = sym.words_to_symbols(words)[0]
        assert symbols[3 * sym.SYMBOLS_PER_WORD] == 2
        assert symbols.sum() == 2

    def test_single_line_shape(self):
        words = np.arange(8, dtype=np.uint64)
        symbols = sym.words_to_symbols(words)
        assert symbols.shape == (256,)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            sym.words_to_symbols(np.zeros((4, 7), dtype=np.uint64))
        with pytest.raises(ValueError):
            sym.symbols_to_words(np.zeros((4, 255), dtype=np.uint8))


class TestByteAndBitConversion:
    def test_bytes_roundtrip(self, rng):
        words = _random_words(rng)
        assert np.array_equal(sym.bytes_to_words(sym.words_to_bytes(words)), words)

    def test_bytes_little_endian_within_word(self):
        words = np.zeros((1, 8), dtype=np.uint64)
        words[0, 0] = 0x1122334455667788
        out = sym.words_to_bytes(words)[0]
        assert out[0] == 0x88
        assert out[7] == 0x11

    def test_bits_roundtrip(self, rng):
        words = _random_words(rng, n=4)
        assert np.array_equal(sym.bits_to_words(sym.words_to_bits(words)), words)

    def test_bits_symbols_roundtrip(self, rng):
        words = _random_words(rng, n=4)
        bits = sym.words_to_bits(words)
        symbols = sym.bits_to_symbols(bits)
        assert np.array_equal(sym.words_to_symbols(words), symbols)
        assert np.array_equal(sym.symbols_to_bits(symbols), bits)

    def test_rejects_wrong_bit_width(self):
        with pytest.raises(ValueError):
            sym.bits_to_words(np.zeros((2, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            sym.bits_to_symbols(np.zeros((2, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            sym.symbols_to_bits(np.zeros((2, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            sym.bytes_to_words(np.zeros((2, 63), dtype=np.uint8))


def _four_slices(states):
    """State bytes by the four strided cell slices (the original packing)."""
    cells = states.reshape(states.shape[:-1] + (states.shape[-1] // 4, 4))
    return cells[..., 0] | (cells[..., 1] << 2) | (cells[..., 2] << 4) | (cells[..., 3] << 6)


class TestStateBytes:
    def test_pack_every_four_cell_pattern(self):
        every = np.array(list(np.ndindex(4, 4, 4, 4)), dtype=np.uint8)  # (256, 4)
        packed = sym.pack_state_bytes(every)
        assert packed.dtype == np.uint8 and packed.shape == (256, 1)
        assert np.array_equal(packed, _four_slices(every))
        assert sorted(packed[:, 0].tolist()) == list(range(256))
        assert np.array_equal(sym.unpack_state_bytes(packed), every)

    @pytest.mark.parametrize(
        "shape", [(4,), (3, 8), (5, 64), (2048, 256), (7, 260), (2, 3, 16), (0, 256)]
    )
    def test_pack_random_states(self, rng, shape):
        states = rng.integers(0, 4, size=shape, dtype=np.uint8)
        packed = sym.pack_state_bytes(states)
        assert packed.shape == shape[:-1] + (shape[-1] // 4,)
        assert np.array_equal(packed, _four_slices(states))
        assert np.array_equal(sym.unpack_state_bytes(packed), states)

    def test_pack_strided_and_wide_input(self, rng):
        states = rng.integers(0, 4, size=(9, 257), dtype=np.int64)
        assert np.array_equal(
            sym.pack_state_bytes(states[:, :256]), _four_slices(states[:, :256].astype(np.uint8))
        )

    def test_count_states_matches_per_cell_count(self, rng):
        stored = rng.integers(0, 4, size=(300, sym.SYMBOLS_PER_LINE), dtype=np.uint8)
        marked = rng.random(stored.shape) < 0.4
        marks = sym.pack_state_bytes(marked.astype(np.uint8)).view("<u8")
        got = sym.count_states(sym.pack_state_bytes(stored), marks)
        assert got.dtype == np.int64
        assert got.tolist() == np.bincount(stored[marked], minlength=4).tolist()


class TestComplement:
    def test_complement_symbols(self):
        values = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert np.array_equal(sym.complement_symbols(values), np.array([3, 2, 1, 0]))

    def test_complement_matches_bitwise_not(self, rng):
        words = _random_words(rng, n=4)
        complemented = sym.words_to_symbols(~words)
        assert np.array_equal(sym.complement_symbols(sym.words_to_symbols(words)), complemented)


class TestIntConversion:
    def test_int_roundtrip(self):
        value = (0xDEADBEEF << 300) | 0x1234567890ABCDEF
        words = sym.line_from_int(value)
        assert sym.line_to_int(words) == value

    def test_low_word_is_least_significant(self):
        words = sym.line_from_int(5)
        assert words[0] == 5
        assert words[1:].sum() == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sym.line_from_int(-1)
        with pytest.raises(ValueError):
            sym.line_from_int(1 << 512)

    def test_line_to_int_requires_single_line(self):
        with pytest.raises(ValueError):
            sym.line_to_int(np.zeros((2, 8), dtype=np.uint64))


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_symbol_roundtrip_property(word_values):
    """Property: symbol packing is a bijection for any line content."""
    words = np.array([word_values], dtype=np.uint64)
    assert np.array_equal(sym.symbols_to_words(sym.words_to_symbols(words)), words)


@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
@settings(max_examples=30, deadline=None)
def test_int_roundtrip_property(value):
    """Property: integer <-> line conversion is a bijection over 512-bit values."""
    assert sym.line_to_int(sym.line_from_int(value)) == value
