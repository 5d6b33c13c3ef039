"""Tests of the unrestricted coset encoders (6cosets / 4cosets / 3cosets)."""

import numpy as np
import pytest

from repro.coding import CosetSpec, coset_encoder, make_scheme
from repro.coding.baseline import BaselineEncoder
from repro.coding.engines import aux_pairs
from repro.core.cosets import C1, SIX_COSETS
from repro.core.energy import DEFAULT_ENERGY_MODEL
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded


class TestAuxCodecs:
    """The line-scope aux layouts: one index cell or two pair cells per block."""

    def test_single_cell_codec_roundtrip(self):
        encoder = make_scheme("4cosets-128")  # four blocks, one cell each
        choice = np.array([[0, 3, 2, 1]], dtype=np.uint8)
        states = encoder._aux_states(None, choice)
        assert states.shape == (1, 4)
        assert np.array_equal(encoder._read_aux(states), choice)

    def test_single_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            CosetSpec("5cosets", SIX_COSETS[:5], "cheapest", "cells", 512)

    def test_pair_cell_codec_uses_cheapest_combos(self):
        pairs, _ = aux_pairs(DEFAULT_ENERGY_MODEL, 6)
        # The six cheapest two-cell state combinations never use S4 (state 3).
        assert pairs.max() <= 2
        # The very cheapest combination is (S1, S1).
        assert pairs[0].tolist() == [0, 0]

    def test_pair_cell_codec_roundtrip(self):
        encoder = make_scheme("6cosets-128")  # four blocks, two cells each
        choice = np.array([[0, 5, 3, 1], [2, 2, 1, 4]], dtype=np.uint8)
        states = encoder._aux_states(None, choice)
        assert states.shape == (2, 8)
        assert np.array_equal(encoder._read_aux(states), choice)

    def test_pair_cell_codec_unmapped_pair_decodes_to_zero(self):
        encoder = make_scheme("6cosets-256")  # two blocks
        pairs, _ = aux_pairs(DEFAULT_ENERGY_MODEL, 6)
        # (S4, S4) is never among the six cheapest combinations.
        states = np.array([[3, 3] + pairs[4].tolist()], dtype=np.uint8)
        assert encoder._read_aux(states).tolist() == [[0, 4]]

    def test_pair_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            CosetSpec("17cosets", np.tile(C1, (17, 1)), "cheapest", "pairs", 512)


class TestGeometry:
    def test_aux_cells_scale_with_granularity(self):
        assert coset_encoder("4cosets", 512).aux_cells == 1
        assert coset_encoder("4cosets", 16).aux_cells == 32
        assert coset_encoder("6cosets", 512).aux_cells == 2
        assert coset_encoder("6cosets", 16).aux_cells == 64

    def test_paper_overhead_claim(self):
        """4cosets halves the auxiliary overhead of 6cosets at any granularity."""
        for granularity in (8, 16, 32, 64, 128):
            six, four = coset_encoder("6cosets", granularity), coset_encoder("4cosets", granularity)
            assert six.aux_cells == 2 * four.aux_cells

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            coset_encoder("4cosets", 48)
        with pytest.raises(ConfigurationError):
            CosetSpec("4cosets", np.zeros((4, 3), dtype=np.uint8), "cheapest", "cells", 16)

    def test_names(self):
        assert coset_encoder("6cosets", 512).name == "6cosets-512"
        assert make_scheme("6cosets").name == "6cosets-512"
        assert coset_encoder("3cosets", 16).name == "3cosets-16"


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64, 128, 256, 512])
    def test_four_cosets_roundtrip(self, biased_lines, granularity):
        encoder = coset_encoder("4cosets", granularity)
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]

    @pytest.mark.parametrize("granularity", [16, 128, 512])
    def test_six_cosets_roundtrip(self, random_lines, granularity):
        encoder = coset_encoder("6cosets", granularity)
        assert encoder.roundtrip(random_lines[:12]) == random_lines[:12]

    def test_three_cosets_roundtrip(self, biased_lines):
        encoder = coset_encoder("3cosets", 16)
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]


class TestEnergyBehaviour:
    def test_never_worse_than_baseline_on_fresh_cells(self, biased_lines, random_lines):
        """Candidate C1 is always available, so a fresh write costs at most baseline."""
        weights = BaselineEncoder().energy_model.write_energy_per_state
        for lines in (biased_lines[:24], random_lines[:16]):
            base_states = BaselineEncoder().encode_reference(lines)
            base_cost = weights[base_states][base_states != 0].sum()
            for prefix in ("6cosets", "4cosets", "3cosets"):
                encoder = coset_encoder(prefix, 64)
                states = encoder.encode_reference(lines)[:, :256]
                cost = weights[states][states != 0].sum()
                assert cost <= base_cost + 1e-9

    def test_finer_granularity_reduces_data_energy(self, gcc_trace):
        """Figure 1 trend: smaller blocks give lower data-symbol energy."""
        coarse = coset_encoder("6cosets", 512)
        fine = coset_encoder("6cosets", 16)
        old, new = gcc_trace.old[:128], gcc_trace.new[:128]
        coarse_metrics = metrics_from_encoded(coarse.encode_batch(new, old), coarse)
        fine_metrics = metrics_from_encoded(fine.encode_batch(new, old), fine)
        assert fine_metrics.avg_data_energy_pj <= coarse_metrics.avg_data_energy_pj
        # ... while the auxiliary energy grows (the paper's motivation).
        assert fine_metrics.avg_aux_energy_pj >= coarse_metrics.avg_aux_energy_pj

    def test_all_ones_line_uses_cheap_states(self):
        """4cosets maps a run of ones to the cheapest state via C2."""
        encoder = coset_encoder("4cosets", 64)
        ones = LineBatch(np.full((1, 8), 2**64 - 1, dtype=np.uint64))
        states = encoder.encode_reference(ones)
        assert (states[0, :256] == 0).all()

    def test_aux_mask_marks_only_appended_cells(self, biased_lines):
        encoder = coset_encoder("4cosets", 32)
        encoded = encoder.encode_batch(biased_lines[:4], biased_lines[:4])
        assert not encoded.aux_mask[:, :256].any()
        assert encoded.aux_mask[:, 256:].all()
