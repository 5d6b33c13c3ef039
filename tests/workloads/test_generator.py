"""Tests of the synthetic line / trace generators."""

import numpy as np
import pytest

from repro.compression.wlc import WLCCompressor
from repro.workloads.generator import (
    LineGenerator,
    generate_benchmark_trace,
    generate_random_trace,
)
from repro.workloads.profiles import LINE_TYPES, get_profile


@pytest.fixture()
def generator():
    return LineGenerator(get_profile("gcc"), np.random.default_rng(3))


class TestWordGenerators:
    @pytest.mark.parametrize("line_type", LINE_TYPES)
    def test_every_line_type_generates(self, generator, line_type):
        words = generator.generate_words(line_type, 16)
        assert words.shape == (16, 8)
        assert words.dtype == np.uint64

    def test_unknown_type_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate_words("bogus", 4)

    def test_zero_lines_are_zero(self, generator):
        assert generator.generate_words("zero", 4).sum() == 0

    def test_small_ints_have_leading_zeros(self, generator):
        words = generator.generate_words("small_int", 64)
        assert (words >> np.uint64(59) == 0).all()

    def test_small_negatives_have_leading_ones(self, generator):
        words = generator.generate_words("small_neg_int", 64)
        assert (words >> np.uint64(59) == 0b11111).all()

    def test_pointers_have_canonical_prefix(self, generator):
        words = generator.generate_words("pointer", 32)
        assert ((words >> np.uint64(40)) == np.uint64(0x7F)).all()

    def test_text_is_printable_ascii(self, generator):
        words = generator.generate_words("text", 16)
        for shift in range(0, 64, 8):
            byte = (words >> np.uint64(shift)) & np.uint64(0xFF)
            assert (byte >= 0x20).all() and (byte < 0x7F).all()

    def test_float64_words_are_not_wlc_compressible(self, generator):
        words = generator.generate_words("float64", 32)
        wlc = WLCCompressor(k=6)
        assert not wlc.word_compressible(words).all()

    def test_packed16_words_are_wlc_compressible(self, generator):
        words = generator.generate_words("packed16", 64)
        wlc = WLCCompressor(k=6)
        assert wlc.word_compressible(words).all()


class TestBatchGeneration:
    def test_type_assignment_follows_mix(self, generator):
        types = generator.assign_types(4000)
        assert types.dtype == np.int8
        mix = get_profile("gcc").line_type_mix
        zero_fraction = float(np.mean(types == generator.type_names.index("zero")))
        assert zero_fraction == pytest.approx(mix["zero"], abs=0.05)

    def test_generate_lines_respects_types(self, generator):
        zero, random = (generator.type_names.index(t) for t in ("zero", "random"))
        types = np.asarray([zero] * 4 + [random] * 4, dtype=np.int8)
        lines, assigned = generator.generate_lines(8, types)
        assert np.array_equal(assigned, types)
        assert lines.words[:4].sum() == 0
        assert (lines.words[4:] != 0).any()

    def test_mutation_changes_some_words(self, generator):
        lines, types = generator.generate_lines(64)
        mutated = generator.mutate_lines(lines, types)
        changed_words = (mutated.words != lines.words).mean()
        fraction = get_profile("gcc").change_word_fraction
        assert 0.3 * fraction < changed_words < 1.5 * fraction


class TestTraceGeneration:
    def test_trace_shape_and_metadata(self):
        trace = generate_benchmark_trace("libq", length=100, seed=5)
        assert len(trace) == 100
        assert trace.name == "libq"
        assert trace.metadata["memory_intensity"] == "low"

    def test_traces_are_reproducible(self):
        a = generate_benchmark_trace("gcc", length=50, seed=9)
        b = generate_benchmark_trace("gcc", length=50, seed=9)
        assert a.new == b.new and a.old == b.old

    def test_different_seeds_differ(self):
        a = generate_benchmark_trace("gcc", length=50, seed=1)
        b = generate_benchmark_trace("gcc", length=50, seed=2)
        assert a.new != b.new

    def test_different_benchmarks_differ(self):
        a = generate_benchmark_trace("gcc", length=50, seed=1)
        b = generate_benchmark_trace("milc", length=50, seed=1)
        assert a.new != b.new

    def test_random_trace_is_unbiased(self):
        trace = generate_random_trace(length=200, seed=1)
        histogram = trace.symbol_histogram()
        assert histogram.sum() == 200 * 256
        assert histogram.min() > 0.2 * histogram.max()

    def test_biased_trace_symbol_histogram_is_skewed(self):
        """Benchmark traces must show the 00/11 bias the paper relies on."""
        trace = generate_benchmark_trace("gcc", length=300, seed=1)
        histogram = trace.symbol_histogram().astype(float)
        zero_fraction = histogram[0] / histogram.sum()
        assert zero_fraction > 0.4

    def test_wlc_coverage_matches_figure4_shape(self):
        """Figure 4: high coverage at k<=6, clearly lower at k=9."""
        trace = generate_benchmark_trace("sopl", length=400, seed=1)
        wlc6 = WLCCompressor(k=6).coverage(trace.new, 511)
        wlc9 = WLCCompressor(k=9).coverage(trace.new, 511)
        assert wlc6 > 0.75
        assert wlc9 < wlc6
