"""Tests of the compressor base helpers."""

import numpy as np
import pytest

from repro.core.errors import CompressionError
from repro.core.line import LineBatch
from repro.compression.wlc import WLCCompressor

from .bit_oracle import pack_bits_lsb_first, unpack_bits_lsb_first


class TestBitPacking:
    def test_pack_unpack_roundtrip(self):
        values = np.array([5, 0, 1023, 7], dtype=np.uint64)
        widths = np.array([4, 3, 10, 3], dtype=np.int64)
        bits = pack_bits_lsb_first(values, widths)
        assert bits.shape[0] == widths.sum()
        assert np.array_equal(unpack_bits_lsb_first(bits, widths), values)

    def test_pack_mismatched_shapes(self):
        with pytest.raises(CompressionError):
            pack_bits_lsb_first(np.array([1, 2]), np.array([3]))

    def test_unpack_too_short_stream(self):
        with pytest.raises(CompressionError):
            unpack_bits_lsb_first(np.zeros(3, dtype=np.uint8), np.array([8]))


class TestCompressorHelpers:
    def test_compressible_budget_validation(self, compressible_lines):
        wlc = WLCCompressor(k=6)
        with pytest.raises(CompressionError):
            wlc.compressible(compressible_lines, 0)
        with pytest.raises(CompressionError):
            wlc.compressible(compressible_lines, 1000)

    def test_coverage_empty_batch(self):
        assert WLCCompressor(k=6).coverage(LineBatch.zeros(0), 100) == 0.0
