"""Word kernels against the bit-matrix oracle.

The compressors lay their streams out on packed ``uint64`` words
(:mod:`repro.compression.kernels`).  Every test here holds them to the
bit-matrix implementation kept in :mod:`.bit_oracle`: the three kernels at
word boundaries, and every compressor's ``compress_batch`` streams and
lengths and ``decompress_batch`` results, on fixtures and under hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BDICompressor,
    COCCompressor,
    FPCBDICompressor,
    FPCCompressor,
    PackedBits,
    RawLineCompressor,
    RepeatedValueCompressor,
    STANDARD_BDI_VARIANTS,
    WLCCompressor,
    WordDeltaCompressor,
    ZeroLineCompressor,
    elements_to_line,
    lay_fields,
    prepend_field,
    split_field,
    take_fields,
)
from repro.compression.fpc import classify_words32, line_to_words32
from repro.core.line import LineBatch
from repro.core.symbols import BITS_PER_LINE

from . import bit_oracle
from .bit_oracle import BitStreams, compact_segments, hstack_bits, pack_fields, unpack_fields

UNIVERSAL = (FPCCompressor(), FPCBDICompressor(), COCCompressor(), RawLineCompressor())


def assert_same_streams(packed: PackedBits, oracle: BitStreams) -> None:
    """Words hold exactly the oracle's bits, zero past each length, no spare word."""
    assert np.array_equal(packed.lengths, oracle.lengths)
    assert packed.words.dtype == np.uint64
    width = int(oracle.lengths.max(initial=0))
    if len(packed):
        assert packed.words.shape[1] == -(-width // 64)
    bits = np.unpackbits(
        np.ascontiguousarray(packed.words, dtype="<u8").view(np.uint8), axis=1, bitorder="little"
    )
    expected = np.zeros_like(bits)
    expected[:, :width] = oracle.bits[:, :width]
    assert np.array_equal(bits, expected)


def assert_matches_oracle(compressor, words: np.ndarray) -> None:
    """compress_batch == oracle streams; both decoders agree and round-trip."""
    words = np.asarray(words, dtype=np.uint64)
    packed = compressor.compress_batch(LineBatch(words))
    oracle = bit_oracle.compress(compressor, words)
    assert_same_streams(packed, oracle)
    assert np.array_equal(compressor.decompress_batch(packed), words)
    assert np.array_equal(bit_oracle.decompress(compressor, oracle), words)
    assert np.array_equal(
        compressor.decompress_batch(bit_oracle.to_packed(oracle, compressor.name)), words
    )


def segments(values: np.ndarray, widths: np.ndarray) -> BitStreams:
    """The oracle's layout of ``(n, f)`` fields: unpack each, then compact."""
    return compact_segments(unpack_fields(values, 64), widths)


# ---------------------------------------------------------------------- #
# The three kernels at word boundaries
# ---------------------------------------------------------------------- #
LAYOUTS = {
    "field-at-bit-0-of-a-word": [64, 7, 57, 9],
    "fields-at-bit-0-after-halves": [32, 32, 5],
    "field-ending-at-bit-63": [60, 4, 13, 51],
    "fpc-35-bit-fields-straddle": [35] * 16,
    "64-bit-fields-at-nonzero-offsets": [3, 64, 64, 61],
    "exactly-two-words": [64, 64],
    "exactly-three-words-ragged": [1, 63, 17, 47, 32, 32],
    "zero-width-fields": [0, 5, 0, 0, 59, 0],
}


class TestLayFields:
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=list(LAYOUTS))
    def test_fixed_layouts(self, layout, rng):
        widths = np.array(layout, dtype=np.int64)
        values = rng.integers(0, 2**64, size=(7, widths.size), dtype=np.uint64)
        packed = lay_fields(values, widths, "t")
        assert_same_streams(packed, segments(values, np.broadcast_to(widths, values.shape)))
        # The reader recovers every field at its prefix-sum cursor.
        expected = values & ((np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1))
        assert np.array_equal(take_fields(packed.words, np.cumsum(widths) - widths, widths), expected)

    def test_ragged_layouts_and_empty_rows(self, rng):
        widths = rng.integers(0, 65, size=(40, 9)).astype(np.int64)
        widths[[3, 17]] = 0  # zero-length streams
        widths[5] = [64, 0, 64, 0, 64, 0, 64, 0, 0]  # exactly 64 * 4 bits
        values = rng.integers(0, 2**64, size=widths.shape, dtype=np.uint64)
        assert_same_streams(lay_fields(values, widths, "t"), segments(values, widths))

    def test_all_streams_empty(self):
        packed = lay_fields(np.ones((3, 4), dtype=np.uint64), np.zeros(4, dtype=np.int64), "t")
        assert packed.words.shape == (3, 0) and not packed.lengths.any()
        assert lay_fields(np.zeros((2, 0), dtype=np.uint64), [], "t").words.shape == (2, 0)

    def test_values_wider_than_their_field_are_cut(self):
        packed = lay_fields(np.array([[0xFF, 0xFF]], dtype=np.uint64), [4, 4], "t")
        assert packed.words[0, 0] == 0xFF and packed.lengths[0] == 8
        packed = lay_fields(np.array([[0xFF, 0x1]], dtype=np.uint64), [3, 1], "t")
        assert packed.words[0, 0] == 0b1111


class TestPrependAndSplit:
    @pytest.mark.parametrize("width", [0, 1, 4, 5, 9, 63, 64])
    def test_prepend_matches_hstack(self, width, rng):
        widths = rng.integers(0, 65, size=(12, 8)).astype(np.int64)
        widths[0] = 0
        widths[1] = 64  # a stream of exactly 8 words
        values = rng.integers(0, 2**64, size=widths.shape, dtype=np.uint64)
        tags = rng.integers(0, 2**64, size=12, dtype=np.uint64)
        stream = lay_fields(values, widths, "t")
        framed = prepend_field(stream, tags, width)
        tag_bits = BitStreams(unpack_fields(tags, 64)[:, :width], np.full(12, width))
        assert_same_streams(framed, hstack_bits([tag_bits, segments(values, widths)]))
        head, rest = split_field(framed, width)
        assert np.array_equal(head, tags & np.uint64((1 << width) - 1))
        assert_same_streams(rest, segments(values, widths))

    def test_prepend_to_empty_streams(self):
        empty = PackedBits(np.zeros((2, 0), dtype=np.uint64), np.zeros(2), "t")
        framed = prepend_field(empty, np.array([5, 2]), 3)
        assert list(framed.words[:, 0]) == [5, 2] and list(framed.lengths) == [3, 3]
        assert prepend_field(empty, np.array([5, 2]), 0).words.shape == (2, 0)

    def test_prepend_drops_spare_zero_words(self):
        padded = PackedBits(np.array([[7, 0, 0]], dtype=np.uint64), np.array([3]), "t")
        framed = prepend_field(padded, np.array([1]), 1)
        assert framed.words.shape == (1, 1) and framed.words[0, 0] == 0b1111


class TestTakeFields:
    def test_per_line_cursors_match_the_oracle(self, rng):
        widths = rng.integers(0, 65, size=(30, 10)).astype(np.int64)
        values = rng.integers(0, 2**64, size=widths.shape, dtype=np.uint64)
        packed = lay_fields(values, widths, "t")
        oracle = segments(values, widths)
        bits = np.zeros((30, 64 * packed.words.shape[1] + 64), dtype=np.uint8)
        bits[:, : oracle.bits.shape[1]] = oracle.bits
        for width in (1, 3, 35, 64):
            cursors = rng.integers(0, np.maximum(oracle.lengths - width, 0) + 1)[:, None]
            expected = pack_fields(
                np.take_along_axis(bits, cursors + np.arange(width), axis=1)
            )
            assert np.array_equal(take_fields(packed.words, cursors, width)[:, 0], expected)

    def test_empty_words(self):
        assert take_fields(np.zeros((3, 0), dtype=np.uint64), [0, 5], 4).shape == (3, 2)


# ---------------------------------------------------------------------- #
# Every compressor against the oracle
# ---------------------------------------------------------------------- #
def _uncompressed_words32(rng, count: int) -> np.ndarray:
    """32-bit words FPC stores uncompressed (pattern 7)."""
    words = rng.integers(2**31, 2**32, size=4 * count, dtype=np.uint64).astype(np.uint32)
    return words[classify_words32(words) == 7][:count]


def all_uncompressed_fpc_line(rng) -> np.ndarray:
    """A line whose sixteen 32-bit words are all FPC-uncompressed: 560 bits."""
    words32 = _uncompressed_words32(rng, 16).astype(np.uint64)
    return words32[0::2] | (words32[1::2] << np.uint64(32))


class TestCompressorsMatchOracle:
    @pytest.mark.parametrize("compressor", UNIVERSAL, ids=lambda c: c.name)
    def test_universal_on_fixtures(self, compressor, biased_lines, random_lines):
        assert_matches_oracle(compressor, biased_lines.words[:64])
        assert_matches_oracle(compressor, random_lines.words[:32])

    def test_all_uncompressed_fpc_line_is_560_bits(self, rng):
        line = all_uncompressed_fpc_line(rng)
        assert (classify_words32(line_to_words32(line)) == 7).all()
        for compressor in (FPCCompressor(), FPCBDICompressor()):
            assert_matches_oracle(compressor, np.stack([line, line[::-1]]))
        assert FPCCompressor().compress_batch(LineBatch(line[None])).lengths[0] == 560

    def test_bdi_family(self, biased_lines, rng):
        bdi = BDICompressor()
        fits = bdi.sizes_bits(biased_lines) < BITS_PER_LINE
        assert_matches_oracle(bdi, biased_lines.words[fits])
        for variant in STANDARD_BDI_VARIANTS:
            limit = 1 << (8 * variant.delta_bytes - 1)
            base = rng.integers(0, 1 << (8 * variant.base_bytes - 2), size=(9, 1), dtype=np.uint64)
            elements = base + rng.integers(
                0, limit // 2, size=(9, 64 // variant.base_bytes), dtype=np.uint64
            )
            assert_matches_oracle(variant, elements_to_line(elements, variant.base_bytes))

    def test_members_and_wlc(self, rng, compressible_lines):
        assert_matches_oracle(ZeroLineCompressor(), np.zeros((3, 8), dtype=np.uint64))
        assert_matches_oracle(
            RepeatedValueCompressor(), np.full((3, 8), 0x8000_0000_0000_0001, dtype=np.uint64)
        )
        base = rng.integers(0, 2**62, size=(10, 1), dtype=np.uint64)
        assert_matches_oracle(
            WordDeltaCompressor(), base + rng.integers(0, 2**14, size=(10, 8), dtype=np.uint64)
        )
        for k in (2, 6, 9, 64):
            wlc = WLCCompressor(k=k)
            fits = wlc.line_compressible(compressible_lines)
            assert_matches_oracle(wlc, compressible_lines.words[fits])

    @pytest.mark.parametrize(
        "compressor", UNIVERSAL + (BDICompressor(), WLCCompressor(6)), ids=lambda c: c.name
    )
    def test_empty_batches(self, compressor):
        assert_matches_oracle(compressor, np.zeros((0, 8), dtype=np.uint64))


line_words = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=8, max_size=8)
narrow_words = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**8),
        st.integers(min_value=2**64 - 2**8, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    min_size=8,
    max_size=8,
)


@given(st.lists(st.one_of(line_words, narrow_words), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_universal_compressors_match_oracle_property(lines):
    words = np.array(lines, dtype=np.uint64)
    for compressor in UNIVERSAL:
        assert_matches_oracle(compressor, words)


@given(
    st.sampled_from(STANDARD_BDI_VARIANTS),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=-130, max_value=130), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_bdi_compressors_match_oracle_property(variant, base, deltas):
    words = np.array([[(base + d) % 2**64 for d in deltas]], dtype=np.uint64)
    batch = LineBatch(words)
    if bool(variant.fits(batch).all()):
        assert_matches_oracle(variant, words)
    bdi = BDICompressor()
    if bdi.sizes_bits(batch)[0] < BITS_PER_LINE:
        assert_matches_oracle(bdi, words)


@given(
    st.integers(min_value=2, max_value=64),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_wlc_matches_oracle_property(k, values):
    words = np.array([[v % 2**64 for v in values]], dtype=np.uint64)
    wlc = WLCCompressor(k=k)
    if bool(wlc.line_compressible(LineBatch(words)).all()):
        assert_matches_oracle(wlc, words)
