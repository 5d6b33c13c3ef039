"""The synthesis kernels against the numpy idioms they replace, draw for draw.

Every generated word is a function of the seeded stream, so each kernel
must keep every RNG call's order, size and dtype and narrow only after the
draw.  Each test replays one kernel and its numpy-idiom original on two
generators with the same seed: the values must be equal, and so must the
next ``rng.random()``, which shows both consumed the same stream.
"""

import numpy as np
import pytest

from repro.workloads.generator import WORDS_PER_LINE, LineGenerator, _choice
from repro.workloads.profiles import ALL_BENCHMARKS, get_profile


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _probabilities(rng, categories):
    """Random weights over ``categories`` with about a third of them zero, normalised."""
    weights = rng.random(categories)
    weights[rng.random(categories) < 0.35] = 0.0
    if not weights.any():
        weights[rng.integers(categories)] = 1.0
    return weights / weights.sum()


@pytest.mark.parametrize("categories", range(2, 12))
@pytest.mark.parametrize("size", [1, 7, 4096, (3, 8), (257, 8), (2, 3, 4)])
def test_choice_matches_generator_choice(categories, size):
    for seed in range(12):
        probs = _probabilities(np.random.default_rng((categories, seed)), categories)
        ours, numpy_rng = _twins(seed)
        got = _choice(ours, probs, size)
        expected = numpy_rng.choice(categories, size=size, p=probs)
        assert got.dtype == np.uint8
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert ours.random() == numpy_rng.random()


class _Draws:
    """A stand-in generator whose ``random`` returns fixed draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size):
        return self.draws.reshape(size)


def test_choice_counts_a_draw_on_an_edge_like_searchsorted_right():
    """A draw equal to a CDF entry goes to the next category, as numpy's does.

    Seeded draws hit an edge with probability about 2**-53, so only fixed
    draws can tell ``>=`` from ``>`` here.
    """
    probs = np.array([0.0, 0.25, 0.0, 0.25, 0.5])
    cdf = np.cumsum(probs)
    draws = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0)])
    got = _choice(_Draws(draws), probs, draws.shape)
    assert got.tolist() == np.searchsorted(cdf, draws, side="right").tolist()


def test_choice_never_picks_a_zero_probability_category():
    probs = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    got = _choice(np.random.default_rng(1), probs, 100_000)
    assert set(np.unique(got)) == {1, 3}


def _old_packed16(rng, n):
    """``_gen_packed16`` as uint64 fields summed by shifts."""
    kind = rng.integers(0, 10, size=(n, WORDS_PER_LINE, 4), dtype=np.uint64)
    small = rng.integers(0, 256, size=(n, WORDS_PER_LINE, 4), dtype=np.uint64)
    wide = rng.integers(0x4000, 0x8000, size=(n, WORDS_PER_LINE, 4), dtype=np.uint64)
    negative = np.uint64(0xFFFF) - small
    fields = np.where(kind < 3, np.uint64(0), small)
    fields = np.where((kind >= 6) & (kind < 8), negative, fields)
    fields = np.where(kind >= 8, wide, fields)
    top_kind = rng.integers(0, 10, size=(n, WORDS_PER_LINE), dtype=np.uint64)
    top = np.where(top_kind < 5, np.uint64(0), small[..., 3])
    fields[..., 3] = np.where(top_kind >= 8, np.uint64(0xFFFF), top)
    shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
    return (fields << shifts).sum(axis=-1, dtype=np.uint64)


def _old_text(rng, n):
    """``_gen_text`` as uint64 characters summed by shifts."""
    chars = rng.integers(0x20, 0x7F, size=(n, WORDS_PER_LINE, 8), dtype=np.uint64)
    shifts = np.arange(8, dtype=np.uint64) * np.uint64(8)
    return (chars << shifts).sum(axis=-1, dtype=np.uint64)


@pytest.mark.parametrize("line_type, old", [("packed16", _old_packed16), ("text", _old_text)])
@pytest.mark.parametrize("n", [0, 1, 33, 2048])
def test_word_views_match_shift_and_sum(line_type, old, n):
    for seed in range(4):
        ours, reference = _twins(seed)
        got = LineGenerator(get_profile("gcc"), ours).generate_words(line_type, n)
        expected = old(reference, n)
        assert got.shape == (n, WORDS_PER_LINE)
        assert np.array_equal(got, expected)
        assert ours.random() == reference.random()


@pytest.mark.parametrize("profile", ALL_BENCHMARKS)
def test_generate_lines_matches_masked_fill(profile):
    """Rows filled through the stable order equal the boolean mask per type."""
    ours, reference = _twins(17)
    words, types = LineGenerator(get_profile(profile), ours).generate_lines(999)
    generator = LineGenerator(get_profile(profile), reference)
    expected_types = generator.assign_types(999)
    expected = np.zeros((999, WORDS_PER_LINE), dtype=np.uint64)
    counts = np.bincount(expected_types, minlength=len(generator.type_names))
    for code in np.flatnonzero(counts):
        mask = expected_types == code
        expected[mask] = generator.generate_words(generator.type_names[code], int(counts[code]))
    assert np.array_equal(types, expected_types)
    assert np.array_equal(words.words, expected)
    assert ours.random() == reference.random()
