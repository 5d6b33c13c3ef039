"""Tests of the bit-matrix oracle kernels (``bit_oracle``) themselves.

The word kernels of :mod:`repro.compression.kernels` are tested against
these bit-matrix kernels, so the oracle's own contract stays pinned here.
"""

import numpy as np
import pytest

from repro.core.errors import CompressionError

from .bit_oracle import BitStreams, compact_segments, hstack_bits, pack_fields, unpack_fields


class TestPrimitives:
    def test_pack_unpack_roundtrip(self, rng):
        values = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        assert np.array_equal(pack_fields(unpack_fields(values, 64)), values)

    def test_pack_rejects_overwide_fields(self):
        with pytest.raises(CompressionError):
            pack_fields(np.zeros((1, 65), dtype=np.uint8))

    def test_compact_segments_matches_cursor_loop(self, rng):
        n, segments, cap = 6, 5, 9
        seg_bits = rng.integers(0, 2, size=(n, segments, cap)).astype(np.uint8)
        widths = rng.integers(0, cap + 1, size=(n, segments)).astype(np.int64)
        widths[[1, 4]] = 0  # rows with no bits at all
        packed = compact_segments(seg_bits, widths)
        assert packed.bits.shape == (n, packed.lengths.max())
        for i in range(n):
            expected = np.concatenate(
                [seg_bits[i, s, : widths[i, s]] for s in range(segments)]
            )
            padded = np.zeros(packed.bits.shape[1], dtype=np.uint8)
            padded[: expected.size] = expected
            assert packed.lengths[i] == expected.size
            assert np.array_equal(packed.bits[i], padded)
        empty = compact_segments(seg_bits, np.zeros_like(widths))
        assert empty.bits.shape == (n, 0) and not empty.lengths.any()

    def test_hstack_bits_concatenates_ragged_rows(self):
        left = BitStreams(np.array([[1, 0], [1, 1]], dtype=np.uint8), np.array([1, 2]))
        right = BitStreams(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8), np.array([3, 1]))
        stacked = hstack_bits([left, right])
        assert np.array_equal(stacked.bits[0, : stacked.lengths[0]], [1, 0, 1, 1])
        assert np.array_equal(stacked.bits[1, : stacked.lengths[1]], [1, 1, 1])
