"""Tests of the stateful PCM bank."""
import pytest

from repro.coding import make_scheme
from repro.core.errors import SimulationError
from repro.core.line import LineBatch
from repro.pcm.bank import PCMBank


@pytest.fixture()
def bank():
    return PCMBank(make_scheme("wlcrc-16"), lines=8)


class TestReadWrite:
    def test_write_then_read_roundtrip(self, bank, biased_lines):
        data = biased_lines[3]
        bank.write_line(0, data)
        assert bank.read_line(0) == data

    def test_unwritten_row_reads_zero(self, bank):
        assert bank.read_line(5) == LineBatch.zeros(1)

    def test_row_bounds_checked(self, bank, biased_lines):
        with pytest.raises(SimulationError):
            bank.write_line(99, biased_lines[0])
        with pytest.raises(SimulationError):
            bank.read_line(-1)

    def test_write_requires_single_line(self, bank, biased_lines):
        with pytest.raises(SimulationError):
            bank.write_line(0, biased_lines[:2])

    def test_overwrite_keeps_latest_value(self, bank, biased_lines):
        bank.write_line(2, biased_lines[0])
        bank.write_line(2, biased_lines[1])
        assert bank.read_line(2) == biased_lines[1]


class TestDifferentialBehaviour:
    def test_rewriting_same_data_is_free(self, bank, biased_lines):
        data = biased_lines[7]
        bank.write_line(1, data)
        second = bank.write_line(1, data)
        assert second.avg_energy_pj == 0.0
        assert second.avg_updated_cells == 0.0

    def test_wear_accumulates_only_on_changed_cells(self, bank, biased_lines):
        data = biased_lines[7]
        bank.write_line(1, data)
        wear_after_first = bank.wear.sum()
        bank.write_line(1, data)
        assert bank.wear.sum() == wear_after_first

    def test_metrics_accumulate(self, bank, biased_lines):
        bank.write_line(0, biased_lines[0])
        bank.write_line(1, biased_lines[1])
        assert bank.metrics.requests == 2
        assert bank.stats.writes == 2

    def test_wear_statistics(self, bank, biased_lines):
        bank.write_line(0, biased_lines[0])
        assert bank.max_cell_wear() >= 1
        assert bank.mean_cell_wear() > 0
        counts, edges = bank.wear_histogram(bins=4)
        assert counts.sum() == bank.wear.size


class TestDisturbanceSampling:
    def test_verify_and_restore_repairs_faults(self, biased_lines):
        bank = PCMBank(
            make_scheme("baseline"), lines=4, sample_disturbance=True, seed=3
        )
        for i in range(4):
            bank.write_line(i, biased_lines[i])
        # Regardless of sampled faults, the stored data must decode correctly.
        for i in range(4):
            assert bank.read_line(i) == biased_lines[i]
        assert bank.stats.restore_iterations >= 0

    @pytest.mark.parametrize("seed", [0, 4])
    def test_sampled_faults_are_injected_counted_and_restored(self, biased_lines, seed):
        """The faults a write injects are the ones its metrics count (one draw)."""
        bank = PCMBank(
            make_scheme("baseline"), lines=16, sample_disturbance=True, seed=seed
        )
        for i in range(16):
            bank.write_line(i, biased_lines[i])
        assert bank.stats.disturbance_events > 0
        assert bank.stats.disturbance_events == bank.metrics.disturbance_errors
        assert bank.stats.restore_iterations > 0
        for i in range(16):
            assert bank.read_line(i) == biased_lines[i]

    def test_invalid_bank_size(self):
        with pytest.raises(SimulationError):
            PCMBank(make_scheme("baseline"), lines=0)
