"""Tests of the write-disturbance model."""

import numpy as np
import pytest

from repro.core.disturbance import (
    DEFAULT_DISTURBANCE_MODEL,
    DisturbanceModel,
    neighbor_of_updated,
    vulnerable_cells,
)
from repro.core.symbols import changed_cells


class TestNeighborMask:
    def test_isolated_update_marks_both_neighbors(self):
        changed = np.zeros((1, 6), dtype=bool)
        changed[0, 3] = True
        mask = neighbor_of_updated(changed)
        assert mask[0].tolist() == [False, False, True, False, True, False]

    def test_edge_updates(self):
        changed = np.zeros((1, 4), dtype=bool)
        changed[0, 0] = True
        mask = neighbor_of_updated(changed)
        assert mask[0].tolist() == [False, True, False, False]

    def test_no_updates_no_neighbors(self):
        assert not neighbor_of_updated(np.zeros((2, 8), dtype=bool)).any()


class TestExpectedErrors:
    def test_table2_rates(self):
        assert DEFAULT_DISTURBANCE_MODEL.rates == (0.123, 0.0, 0.276, 0.152)

    def test_s2_is_immune(self):
        states = np.full((1, 3), 1, dtype=np.uint8)  # everything in S2
        changed = np.array([[False, True, False]])
        assert DEFAULT_DISTURBANCE_MODEL.expected_errors(states, changed)[0] == 0.0

    def test_updated_cells_are_not_counted(self):
        states = np.full((1, 3), 2, dtype=np.uint8)
        changed = np.array([[True, True, True]])
        assert DEFAULT_DISTURBANCE_MODEL.expected_errors(states, changed)[0] == 0.0

    def test_expected_value_matches_hand_computation(self):
        # Cells: [S1 idle][updated][S3 idle][S4 idle far away]
        states = np.array([[0, 0, 2, 3]], dtype=np.uint8)
        changed = np.array([[False, True, False, False]])
        expected = 0.123 + 0.276  # the two neighbours of the updated cell
        assert DEFAULT_DISTURBANCE_MODEL.expected_errors(states, changed)[0] == pytest.approx(expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            DEFAULT_DISTURBANCE_MODEL.expected_errors(
                np.zeros((1, 4), dtype=np.uint8), np.zeros((1, 5), dtype=bool)
            )


class TestSampling:
    def test_sampling_respects_vulnerability(self, rng):
        states = np.zeros((10, 64), dtype=np.uint8)
        changed = np.zeros((10, 64), dtype=bool)
        changed[:, ::4] = True
        faults = DEFAULT_DISTURBANCE_MODEL.sample_errors(states, changed, rng)
        vulnerable = DEFAULT_DISTURBANCE_MODEL.vulnerable_mask(states, changed)
        assert not faults[~vulnerable].any()

    def test_sampling_mean_approaches_expectation(self):
        rng = np.random.default_rng(0)
        model = DisturbanceModel()
        states = np.zeros((2000, 16), dtype=np.uint8)  # all S1 (12.3 % DER)
        changed = np.zeros((2000, 16), dtype=bool)
        changed[:, 8] = True
        sampled = model.sample_errors(states, changed, rng).sum(axis=1).mean()
        expected = model.expected_errors(states, changed).mean()
        assert sampled == pytest.approx(expected, rel=0.2)

    def test_zero_rate_model_never_faults(self, rng):
        model = DisturbanceModel(rates=(0.0, 0.0, 0.0, 0.0))
        states = np.zeros((5, 32), dtype=np.uint8)
        changed = np.ones((5, 32), dtype=bool)
        changed[:, ::2] = False
        assert not model.sample_errors(states, changed, rng).any()


class TestValidation:
    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceModel(rates=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            DisturbanceModel(rates=(0.1, 0.2, 0.3, 1.5))


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2048])
@pytest.mark.parametrize("appended", [0, 1, 17])
def test_sampled_blocks_match_one_shot_draw(n, appended):
    """Block-wise draws give the count and the stream of one ``(n, cells)`` draw."""
    rng = np.random.default_rng(n * 31 + appended)
    stored = rng.integers(0, 256, size=(n, 64), dtype=np.uint8)
    written = np.where(rng.random((n, 64)) < 0.3, rng.integers(0, 256, (n, 64)), stored)
    stored_aux = rng.integers(0, 4, size=(n, appended), dtype=np.uint8)
    aux_changed = rng.random((n, appended)) < 0.5
    marks = vulnerable_cells(changed_cells(written.astype(np.uint8), stored), aux_changed)
    model = DEFAULT_DISTURBANCE_MODEL
    blocks, one_shot = np.random.default_rng(9), np.random.default_rng(9)
    got = model.sampled_errors_of_bytes(stored, stored_aux, *marks, blocks)
    per_cell = model.expected_errors_of_bytes(stored, stored_aux, *marks)
    expected = np.count_nonzero(one_shot.random(size=per_cell.shape) < per_cell)
    assert got == expected > 0
    assert blocks.random() == one_shot.random()
