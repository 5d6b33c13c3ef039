"""Tests of the baseline, FNW and FlipMin schemes."""

import numpy as np
import pytest

from repro.coding import coset_encoder
from repro.coding.baseline import BaselineEncoder
from repro.coding.flipmin import FlipMinEncoder
from repro.core.cosets import DEFAULT_MAPPING
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded


class TestBaseline:
    def test_geometry(self):
        encoder = BaselineEncoder()
        assert encoder.aux_cells == 0
        assert encoder.total_cells == 256

    def test_states_follow_default_mapping(self, biased_lines):
        encoder = BaselineEncoder()
        states = encoder.encode_reference(biased_lines[:4])
        expected = DEFAULT_MAPPING[biased_lines[:4].symbols()]
        assert np.array_equal(states, expected)

    def test_roundtrip(self, biased_lines, random_lines):
        encoder = BaselineEncoder()
        assert encoder.roundtrip(biased_lines[:20]) == biased_lines[:20]
        assert encoder.roundtrip(random_lines[:20]) == random_lines[:20]

    def test_identical_write_costs_nothing(self, biased_lines):
        encoder = BaselineEncoder()
        encoded = encoder.encode_batch(biased_lines[:10], biased_lines[:10])
        metrics = metrics_from_encoded(encoded, encoder)
        assert metrics.avg_energy_pj == 0.0
        assert metrics.avg_updated_cells == 0.0
        assert metrics.avg_disturbance_errors == 0.0


class TestFNW:
    def test_geometry(self):
        encoder = coset_encoder("fnw", 128)
        assert encoder.num_blocks == 4
        assert encoder.aux_cells == 2
        assert encoder.total_cells == 258

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            coset_encoder("fnw", 100)

    def test_roundtrip(self, biased_lines, random_lines):
        encoder = coset_encoder("fnw", 128)
        assert encoder.roundtrip(biased_lines[:20]) == biased_lines[:20]
        assert encoder.roundtrip(random_lines[:10]) == random_lines[:10]

    def test_never_worse_than_baseline_on_data_cells(self, gcc_trace):
        """Per request, FNW's data-cell energy is at most the baseline's.

        FNW can always keep the original block (flip bit 0), so with the same
        stored reference its chosen data encoding can never cost more.
        """
        baseline = BaselineEncoder()
        fnw = coset_encoder("fnw", 128)
        old, new = gcc_trace.old[:64], gcc_trace.new[:64]
        base_ref = baseline.encode_reference(old)
        base = baseline.encode_against_stored(new, base_ref)
        fnw_ref = np.concatenate(
            [base_ref, np.zeros((len(old), fnw.aux_cells), dtype=np.uint8)], axis=1
        )
        encoded = fnw.encode_against_stored(new, fnw_ref)
        base_energy = baseline.energy_model.cell_write_energy(base.states, base.changed).sum(axis=1)
        fnw_data = encoded.states[:, :256]
        fnw_changed = encoded.changed[:, :256]
        fnw_energy = fnw.energy_model.cell_write_energy(fnw_data, fnw_changed).sum(axis=1)
        assert (fnw_energy <= base_energy + 1e-9).all()

    def test_all_ones_line_is_flipped_to_cheap_states(self):
        """Writing an all-ones line onto fresh cells should complement every block."""
        encoder = coset_encoder("fnw", 128)
        ones = LineBatch(np.full((1, 8), 2**64 - 1, dtype=np.uint64))
        states = encoder.encode_reference(ones)
        # Complemented data is all zeros -> state S1 everywhere in the data cells.
        assert (states[0, :256] == 0).all()
        assert encoder.decode_states(states) == ones


class TestFlipMin:
    def test_geometry(self):
        encoder = FlipMinEncoder()
        assert encoder.num_cosets == 16
        assert encoder.aux_cells == 2

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            FlipMinEncoder(num_cosets=1)
        with pytest.raises(ConfigurationError):
            FlipMinEncoder(num_cosets=20)

    def test_roundtrip(self, biased_lines, random_lines):
        encoder = FlipMinEncoder()
        assert encoder.roundtrip(biased_lines[:16]) == biased_lines[:16]
        assert encoder.roundtrip(random_lines[:16]) == random_lines[:16]

    def test_candidate_zero_means_identity(self):
        encoder = FlipMinEncoder()
        assert encoder.vectors[0].sum() == 0

    def test_deterministic_given_seed(self, biased_lines):
        a = FlipMinEncoder(seed=5).encode_reference(biased_lines[:4])
        b = FlipMinEncoder(seed=5).encode_reference(biased_lines[:4])
        assert np.array_equal(a, b)

    def test_fresh_write_never_worse_than_baseline(self, random_lines):
        """Against fresh cells FlipMin can always pick the zero vector."""
        baseline = BaselineEncoder()
        flipmin = FlipMinEncoder()
        base_states = baseline.encode_reference(random_lines[:32])
        flip_states = flipmin.encode_reference(random_lines[:32])[:, :256]
        weights = baseline.energy_model.write_energy_per_state
        base_cost = weights[base_states][base_states != 0].sum()
        flip_cost = weights[flip_states][flip_states != 0].sum()
        assert flip_cost <= base_cost + 1e-9
