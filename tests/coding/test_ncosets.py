"""Tests of the unrestricted coset encoders (6cosets / 4cosets / 3cosets)."""

import numpy as np
import pytest

from repro.coding.baseline import BaselineEncoder
from repro.coding.ncosets import (
    NCosetsEncoder,
    PairCellAuxCodec,
    SingleCellAuxCodec,
    make_four_cosets,
    make_six_cosets,
    make_three_cosets,
)
from repro.core.cosets import FOUR_COSETS
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded


class TestAuxCodecs:
    def test_single_cell_codec_roundtrip(self):
        codec = SingleCellAuxCodec(4)
        choice = np.array([[0, 3, 2, 1]], dtype=np.uint8)
        states = codec.encode(choice)
        assert states.shape == (1, 4)
        assert np.array_equal(codec.decode(states, 4), choice)

    def test_single_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            SingleCellAuxCodec(5)

    def test_pair_cell_codec_uses_cheapest_combos(self):
        codec = PairCellAuxCodec(6)
        # The six cheapest two-cell state combinations never use S4 (state 3).
        assert codec.combos.max() <= 2
        # The very cheapest combination is (S1, S1).
        assert codec.combos[0].tolist() == [0, 0]

    def test_pair_cell_codec_roundtrip(self):
        codec = PairCellAuxCodec(6)
        choice = np.array([[0, 5, 3], [2, 2, 1]], dtype=np.uint8)
        states = codec.encode(choice)
        assert states.shape == (2, 6)
        assert np.array_equal(codec.decode(states, 3), choice)

    def test_pair_cell_codec_unmapped_pair_decodes_to_zero(self):
        codec = PairCellAuxCodec(6)
        # (S4, S4) is never among the six cheapest combinations.
        states = np.array([[3, 3] + codec.combos[4].tolist()], dtype=np.uint8)
        assert codec.decode(states, 2).tolist() == [[0, 4]]

    def test_pair_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            PairCellAuxCodec(17)


class TestGeometry:
    def test_aux_cells_scale_with_granularity(self):
        assert make_four_cosets(512).aux_cells == 1
        assert make_four_cosets(16).aux_cells == 32
        assert make_six_cosets(512).aux_cells == 2
        assert make_six_cosets(16).aux_cells == 64

    def test_paper_overhead_claim(self):
        """4cosets halves the auxiliary overhead of 6cosets at any granularity."""
        for granularity in (8, 16, 32, 64, 128):
            assert make_six_cosets(granularity).aux_cells == 2 * make_four_cosets(granularity).aux_cells

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            NCosetsEncoder(FOUR_COSETS, 48)
        with pytest.raises(ConfigurationError):
            NCosetsEncoder(np.zeros((4, 3), dtype=np.uint8), 16)

    def test_names(self):
        assert make_six_cosets(512).name == "6cosets-512"
        assert make_three_cosets(16).name == "3cosets-16"


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64, 128, 256, 512])
    def test_four_cosets_roundtrip(self, biased_lines, granularity):
        encoder = make_four_cosets(granularity)
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]

    @pytest.mark.parametrize("granularity", [16, 128, 512])
    def test_six_cosets_roundtrip(self, random_lines, granularity):
        encoder = make_six_cosets(granularity)
        assert encoder.roundtrip(random_lines[:12]) == random_lines[:12]

    def test_three_cosets_roundtrip(self, biased_lines):
        encoder = make_three_cosets(16)
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]


class TestEnergyBehaviour:
    def test_never_worse_than_baseline_on_fresh_cells(self, biased_lines, random_lines):
        """Candidate C1 is always available, so a fresh write costs at most baseline."""
        weights = BaselineEncoder().energy_model.write_energy_per_state
        for lines in (biased_lines[:24], random_lines[:16]):
            base_states = BaselineEncoder().encode_reference(lines)
            base_cost = weights[base_states][base_states != 0].sum()
            for encoder in (make_six_cosets(64), make_four_cosets(64), make_three_cosets(64)):
                states = encoder.encode_reference(lines)[:, :256]
                cost = weights[states][states != 0].sum()
                assert cost <= base_cost + 1e-9

    def test_finer_granularity_reduces_data_energy(self, gcc_trace):
        """Figure 1 trend: smaller blocks give lower data-symbol energy."""
        coarse = make_six_cosets(512)
        fine = make_six_cosets(16)
        old, new = gcc_trace.old[:128], gcc_trace.new[:128]
        coarse_metrics = metrics_from_encoded(coarse.encode_batch(new, old), coarse)
        fine_metrics = metrics_from_encoded(fine.encode_batch(new, old), fine)
        assert fine_metrics.avg_data_energy_pj <= coarse_metrics.avg_data_energy_pj
        # ... while the auxiliary energy grows (the paper's motivation).
        assert fine_metrics.avg_aux_energy_pj >= coarse_metrics.avg_aux_energy_pj

    def test_all_ones_line_uses_cheap_states(self):
        """4cosets maps a run of ones to the cheapest state via C2."""
        encoder = make_four_cosets(64)
        ones = LineBatch(np.full((1, 8), 2**64 - 1, dtype=np.uint64))
        states = encoder.encode_reference(ones)
        assert (states[0, :256] == 0).all()

    def test_aux_mask_marks_only_appended_cells(self, biased_lines):
        encoder = make_four_cosets(32)
        encoded = encoder.encode_batch(biased_lines[:4], biased_lines[:4])
        assert not encoded.aux_mask[:, :256].any()
        assert encoded.aux_mask[:, 256:].all()
