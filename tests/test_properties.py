"""Cross-cutting property-based tests over all encoding schemes.

These are the library's core invariants:

* every scheme decodes what it encoded (losslessness);
* differential write never charges energy for an unchanged line;
* energy, updated cells and disturbance errors are never negative;
* the per-request energy equals the sum over rewritten cells of the state
  energies (conservation between the encoder output and the metrics layer).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import available_schemes, make_scheme
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded

#: Schemes cheap enough to exercise inside hypothesis loops.
FAST_SCHEMES = [
    "baseline",
    "fnw",
    "flipmin",
    "6cosets",
    "4cosets",
    "3-r-cosets-16",
    "wlc+4cosets",
    "wlcrc-16",
]
#: All schemes, including the slow per-line ones (used outside hypothesis).
ALL_SCHEMES = available_schemes()


def _compressible_words(rng, n):
    words = rng.integers(0, 2**57, size=(n, 8), dtype=np.uint64)
    negative = rng.random((n, 8)) < 0.5
    return np.where(negative, words | np.uint64(0xFC00_0000_0000_0000), words)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_roundtrip_on_benchmark_lines(scheme, biased_lines):
    """Losslessness: decode(encode(x)) == x on benchmark-like content."""
    encoder = make_scheme(scheme)
    subset = biased_lines[:16]
    assert encoder.roundtrip(subset) == subset


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_roundtrip_on_random_lines(scheme, random_lines):
    """Losslessness on adversarial (incompressible) content."""
    encoder = make_scheme(scheme)
    subset = random_lines[:8]
    assert encoder.roundtrip(subset) == subset


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_rewriting_identical_data_is_free(scheme, biased_lines):
    """Differential write: rewriting the same value must cost nothing."""
    encoder = make_scheme(scheme)
    subset = biased_lines[:12]
    encoded = encoder.encode_batch(subset, subset)
    metrics = metrics_from_encoded(encoded, encoder)
    assert metrics.total_energy_pj == 0.0
    assert metrics.updated_cells == 0.0
    assert metrics.disturbance_errors == 0.0


@pytest.mark.parametrize("scheme", FAST_SCHEMES)
def test_metrics_are_non_negative_and_consistent(scheme, gcc_trace):
    """Energy/endurance/disturbance metrics are non-negative and self-consistent."""
    encoder = make_scheme(scheme)
    encoded = encoder.encode_batch(gcc_trace.new[:48], gcc_trace.old[:48])
    metrics = metrics_from_encoded(encoded, encoder)
    assert metrics.total_energy_pj >= 0
    assert metrics.updated_cells >= 0
    assert metrics.disturbance_errors >= 0
    recomputed = encoder.energy_model.cell_write_energy(encoded.states, encoded.changed).sum()
    assert metrics.total_energy_pj == pytest.approx(recomputed)
    assert metrics.updated_cells <= encoded.total_cells * 48


@pytest.mark.parametrize("scheme", FAST_SCHEMES)
def test_encoding_is_deterministic(scheme, gcc_trace):
    """Encoding the same batch twice produces identical cell states."""
    encoder = make_scheme(scheme)
    first = encoder.encode_batch(gcc_trace.new[:16], gcc_trace.old[:16])
    second = encoder.encode_batch(gcc_trace.new[:16], gcc_trace.old[:16])
    assert np.array_equal(first.states, second.states)


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_wlcrc_roundtrips_arbitrary_compressible_lines(seed, count):
    """Property: WLCRC-16 round-trips any WLC-compressible line content."""
    rng = np.random.default_rng(seed)
    lines = LineBatch(_compressible_words(rng, count))
    encoder = make_scheme("wlcrc-16")
    assert encoder.roundtrip(lines) == lines


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_fast_schemes_roundtrip_arbitrary_lines(seed):
    """Property: every fast scheme round-trips arbitrary random lines."""
    rng = np.random.default_rng(seed)
    lines = LineBatch(rng.integers(0, 2**64, size=(2, 8), dtype=np.uint64))
    for scheme in ("baseline", "fnw", "flipmin", "4cosets", "3-r-cosets-16", "wlcrc-16"):
        encoder = make_scheme(scheme)
        assert encoder.roundtrip(lines) == lines


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=10, deadline=None)
def test_wlcrc_data_region_never_exceeds_baseline_on_fresh_writes(seed):
    """Property: on fresh cells WLCRC's data-region energy never exceeds baseline's.

    Candidate C1 (the identity mapping) is always available for every block, so
    the per-block minimum chosen by Algorithm 1 can never cost more than the
    baseline's default mapping over the same (coset-encoded) cells.  The
    reclaimed auxiliary cells are excluded: their content is replaced by the
    selector bits, so they are not comparable cell-for-cell.
    """
    rng = np.random.default_rng(seed)
    lines = LineBatch(_compressible_words(rng, 4))
    baseline = make_scheme("baseline")
    wlcrc = make_scheme("wlcrc-16")
    weights = baseline.energy_model.write_energy_per_state
    base_states = baseline.encode_reference(lines)
    wlcrc_states = wlcrc.encode_reference(lines)[:, :256]
    data_mask = np.arange(256) % 32 < wlcrc.data_region_cells  # cell 32w + j, j below the reclaimed cells
    base_cost = (weights[base_states] * (base_states != 0) * data_mask).sum()
    wlcrc_cost = (weights[wlcrc_states] * (wlcrc_states != 0) * data_mask).sum()
    assert wlcrc_cost <= base_cost + 1e-6
