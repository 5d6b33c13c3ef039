"""Batch-kernel contract tests: ``compress_batch`` == scalar ``compress_line``.

The vectorised kernels in :mod:`repro.compression.kernels` must be
bit-identical to the per-line interface for every compressor of the bank --
stream for stream, length for length -- and ``decompress_batch`` must
round-trip the original lines.  The hypothesis properties sweep structured
and adversarial line content through every variant of BDI, FPC, CoC and WLC
(plus the FPC+BDI and raw/word-delta members).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BDICompressor,
    COCCompressor,
    CompressedLine,
    FPCBDICompressor,
    FPCCompressor,
    PackedBits,
    RawLineCompressor,
    RepeatedValueCompressor,
    STANDARD_BDI_VARIANTS,
    WLCCompressor,
    WordDeltaCompressor,
    ZeroLineCompressor,
)
from repro.compression.backend import get_backend
from repro.core.errors import CompressionError
from repro.core.line import LineBatch
from repro.core.symbols import BITS_PER_LINE

#: Every compressor whose kernel applies to *arbitrary* line content.
UNIVERSAL_COMPRESSORS = (
    FPCCompressor(),
    FPCBDICompressor(),
    COCCompressor(),
    RawLineCompressor(),
)


def assert_batch_equals_scalar(compressor, batch: LineBatch) -> None:
    """The three-way kernel contract on one batch of eligible lines."""
    packed = compressor.compress_batch(batch)
    assert len(packed) == len(batch)
    for i in range(len(batch)):
        scalar = compressor.compress_line(batch.words[i])
        line = packed.line(i)
        assert line.size_bits == scalar.size_bits
        assert np.array_equal(line.bits, scalar.bits)
        assert np.array_equal(
            compressor.decompress_line(scalar), batch.words[i]
        )
    assert np.array_equal(compressor.decompress_batch(packed), batch.words)


# ---------------------------------------------------------------------- #
# PackedBits container
# ---------------------------------------------------------------------- #
class TestPrimitives:
    def test_packed_bits_validates_shapes(self):
        # The word invariant: lengths <= 64 * n_words.
        with pytest.raises(CompressionError):
            PackedBits(np.zeros((2, 1), dtype=np.uint64), np.array([65, 1]), "bad")
        PackedBits(np.zeros((2, 1), dtype=np.uint64), np.array([64, 1]), "ok")
        with pytest.raises(CompressionError):
            PackedBits(np.zeros(3, dtype=np.uint64), np.array([1]), "bad")

    def test_from_streams_pads_rows(self):
        packed = PackedBits.from_streams(
            [np.array([1], dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8)], "p"
        )
        assert packed.words.shape == (2, 1)
        assert list(packed.words[:, 0]) == [1, 6]
        assert list(packed.lengths) == [1, 3]

    def test_kernels_run_on_numpy(self, biased_lines):
        # The recorded array-library name is numpy, and so is every output.
        assert get_backend().name == "numpy"
        for compressor in UNIVERSAL_COMPRESSORS:
            packed = compressor.compress_batch(biased_lines[:4])
            assert type(packed.words) is np.ndarray
            assert type(packed.lengths) is np.ndarray
            assert type(compressor.decompress_batch(packed)) is np.ndarray


# ---------------------------------------------------------------------- #
# Per-compressor equivalence on fixture content
# ---------------------------------------------------------------------- #
class TestFixtureEquivalence:
    @pytest.mark.parametrize(
        "compressor", UNIVERSAL_COMPRESSORS, ids=lambda c: c.name
    )
    def test_universal_on_biased_lines(self, compressor, biased_lines):
        assert_batch_equals_scalar(compressor, biased_lines[:48])

    @pytest.mark.parametrize(
        "compressor", UNIVERSAL_COMPRESSORS, ids=lambda c: c.name
    )
    def test_universal_on_random_lines(self, compressor, random_lines):
        assert_batch_equals_scalar(compressor, random_lines[:32])

    @pytest.mark.parametrize("variant", STANDARD_BDI_VARIANTS, ids=lambda v: v.name)
    def test_bdi_variants_on_fitting_lines(self, variant, rng):
        limit = 1 << (8 * variant.delta_bytes - 1)
        base = rng.integers(
            0, 1 << (8 * variant.base_bytes - 2), size=(40, 1), dtype=np.uint64
        )
        elements = base + rng.integers(
            0, limit // 2, size=(40, 64 // variant.base_bytes), dtype=np.uint64
        )
        from repro.compression import elements_to_line

        words = elements_to_line(elements, variant.base_bytes)
        batch = LineBatch(words)
        assert bool(variant.fits(batch).all())
        assert_batch_equals_scalar(variant, batch)
        assert np.array_equal(
            variant.compress_batch(batch).lengths, variant.sizes_bits(batch)
        )

    def test_bdi_front_end_on_compressible_subset(self, biased_lines):
        bdi = BDICompressor()
        mask = bdi.sizes_bits(biased_lines) < BITS_PER_LINE
        batch = LineBatch(biased_lines.words[mask])
        assert len(batch) > 0
        assert_batch_equals_scalar(bdi, batch)
        assert np.array_equal(bdi.compress_batch(batch).lengths, bdi.sizes_bits(batch))

    def test_wlc_on_compressible_lines(self, compressible_lines):
        for k in (4, 6, 9):
            wlc = WLCCompressor(k=k)
            eligible = LineBatch(
                compressible_lines.words[wlc.line_compressible(compressible_lines)]
            )
            if len(eligible):
                assert_batch_equals_scalar(wlc, eligible)

    def test_degenerate_variants(self):
        zero = ZeroLineCompressor()
        assert_batch_equals_scalar(zero, LineBatch.zeros(5))
        rep = RepeatedValueCompressor()
        words = np.full((4, 8), 0xDEADBEEFCAFEF00D, dtype=np.uint64)
        assert_batch_equals_scalar(rep, LineBatch(words))

    def test_word_delta_member(self, rng):
        base = rng.integers(0, 2**62, size=(20, 1), dtype=np.uint64)
        words = base + rng.integers(0, 2**14, size=(20, 8), dtype=np.uint64)
        delta = WordDeltaCompressor()
        batch = LineBatch(words)
        assert bool(delta.fits(batch).all())
        assert_batch_equals_scalar(delta, batch)

    def test_sizes_match_stream_lengths_universal(self, biased_lines):
        # FPC's size query is uncapped, so it equals the stream lengths
        # exactly; the front-ends cap sizes_bits at 512 while their streams
        # keep the true length (the scalar path always behaved this way), so
        # for them the capped views must agree.
        fpc = FPCCompressor()
        assert np.array_equal(
            fpc.compress_batch(biased_lines[:64]).lengths,
            fpc.sizes_bits(biased_lines[:64]),
        )
        for compressor in (FPCBDICompressor(), COCCompressor()):
            packed = compressor.compress_batch(biased_lines[:64])
            assert np.array_equal(
                np.minimum(packed.lengths, BITS_PER_LINE),
                np.minimum(compressor.sizes_bits(biased_lines[:64]), BITS_PER_LINE),
            )


# ---------------------------------------------------------------------- #
# Validation / error paths
# ---------------------------------------------------------------------- #
class TestValidation:
    def test_batch_rejects_unfit_lines(self, random_lines):
        with pytest.raises(CompressionError):
            ZeroLineCompressor().compress_batch(random_lines[:4])
        with pytest.raises(CompressionError):
            WLCCompressor(k=12).compress_batch(random_lines[:4])

    def test_validated_skips_classification(self, random_lines):
        # The pre-validated entry point trusts the caller -- it must not
        # re-run the fits test (here: garbage in, garbage out, no raise).
        packed = ZeroLineCompressor().compress_batch(random_lines[:2], validated=True)
        assert list(packed.lengths) == [0, 0]

    def test_truncated_streams_raise(self):
        fpc = FPCCompressor()
        with pytest.raises(CompressionError):
            fpc.decompress_batch(PackedBits.from_streams([np.zeros(4, dtype=np.uint8)], "fpc"))
        coc = COCCompressor()
        with pytest.raises(CompressionError):
            coc.decompress_batch(PackedBits.from_streams([np.zeros(2, dtype=np.uint8)], "coc"))

    def test_unknown_tags_raise(self):
        coc = COCCompressor()
        bad_tag = np.array([1, 1, 1, 1, 1] + [0] * 600, dtype=np.uint8)
        with pytest.raises(CompressionError):
            coc.decompress_batch(PackedBits.from_streams([bad_tag], "coc"))

    def test_empty_batches(self):
        for compressor in UNIVERSAL_COMPRESSORS + (BDICompressor(), WLCCompressor(6)):
            packed = compressor.compress_batch(LineBatch.zeros(0))
            assert len(packed) == 0
            assert compressor.decompress_batch(packed).shape == (0, 8)

    def test_scalar_wrapper_round_trip_matches_base_loop(self, biased_lines):
        # The generic base-class loop (what a third-party compressor would
        # inherit) must agree with the overridden vectorised kernels.
        fpc = FPCCompressor()
        from repro.compression.base import Compressor

        generic = Compressor.compress_batch(fpc, biased_lines[:8])
        fast = fpc.compress_batch(biased_lines[:8])
        assert np.array_equal(generic.lengths, fast.lengths)
        assert np.array_equal(generic.words, fast.words)
        assert np.array_equal(
            Compressor.decompress_batch(fpc, fast), biased_lines[:8].words
        )


# ---------------------------------------------------------------------- #
# Hypothesis properties
# ---------------------------------------------------------------------- #
line_words = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=8, max_size=8
)


@given(st.lists(line_words, min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_universal_kernels_property(lines):
    """Property: batch == scalar and decode round-trips, any content."""
    batch = LineBatch(np.array(lines, dtype=np.uint64))
    for compressor in UNIVERSAL_COMPRESSORS:
        assert_batch_equals_scalar(compressor, batch)


@given(
    st.sampled_from(STANDARD_BDI_VARIANTS),
    st.integers(min_value=0, max_value=2**63),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_bdi_variant_kernels_property(variant, base, deltas):
    """Property: every BDI variant's kernel equals its scalar path when it fits."""
    words = np.array(
        [[(base + d) % 2**64 for d in deltas]], dtype=np.uint64
    ).repeat(2, axis=0)
    batch = LineBatch(words)
    if bool(variant.fits(batch).all()):
        assert_batch_equals_scalar(variant, batch)


@given(
    st.integers(min_value=2, max_value=16),
    st.lists(st.integers(min_value=0, max_value=2**48 - 1), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_wlc_kernels_property(k, low_words):
    """Property: WLC keep-bit packing equals the scalar path at any k."""
    wlc = WLCCompressor(k=k)
    words = np.array([low_words], dtype=np.uint64)
    batch = LineBatch(words)
    if bool(wlc.line_compressible(batch).all()):
        assert_batch_equals_scalar(wlc, batch)


@given(st.lists(line_words, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_coc_member_dispatch_property(lines):
    """Property: COC's vectorised member choice equals scalar best_member."""
    coc = COCCompressor()
    batch = LineBatch(np.array(lines, dtype=np.uint64))
    member_sizes = coc.member_sizes(batch)
    choice = coc._member_choice(member_sizes)
    for i in range(len(batch)):
        index, _ = coc.best_member(batch.words[i])
        assert index == choice[i]


@given(st.lists(line_words, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_decompress_accepts_padded_streams(lines):
    """Zero-padding past the stream length must not change the decode."""
    coc = COCCompressor()
    batch = LineBatch(np.array(lines, dtype=np.uint64))
    packed = coc.compress_batch(batch)
    padded = PackedBits(
        np.concatenate(
            [packed.words, np.zeros((len(batch), 1), dtype=np.uint64)], axis=1
        ),
        packed.lengths,
        packed.compressor,
    )
    assert np.array_equal(coc.decompress_batch(padded), batch.words)


def test_compressed_line_view_is_copy(biased_lines):
    packed = FPCCompressor().compress_batch(biased_lines[:2])
    line = packed.line(0)
    assert isinstance(line, CompressedLine)
    line.bits[:] = 1  # mutating the view must not corrupt the batch
    assert np.array_equal(
        packed.line(0).bits, FPCCompressor().compress_line(biased_lines.words[0]).bits
    )
