"""Tests of the system / evaluation configuration objects."""

import pytest

from repro.core.config import (
    CPUConfig,
    DEFAULT_SYSTEM_CONFIG,
    EvaluationConfig,
    GRANULARITIES_FULL,
    GRANULARITIES_WLC,
    PCMOrganization,
    SystemConfig,
)


class TestPCMOrganization:
    def test_table2_defaults(self):
        org = PCMOrganization()
        assert org.capacity_gib == 32
        assert org.channels == 2
        assert org.dimms_per_channel == 2
        assert org.banks_per_dimm == 16
        assert org.write_queue_entries == 32

    def test_total_banks(self):
        assert PCMOrganization().total_banks == 2 * 2 * 16

    def test_lines_per_bank(self):
        org = PCMOrganization()
        total_lines = 32 * (1 << 30) // 64
        assert org.lines_per_bank == total_lines // org.total_banks


class TestCPUConfig:
    def test_table2_defaults(self):
        cpu = CPUConfig()
        assert cpu.cores == 8
        assert cpu.frequency_ghz == 4.0
        assert cpu.l2_size_kib == 2048
        assert cpu.l2_ways == 8


class TestSystemConfig:
    def test_default_bundles_table2_models(self):
        config = DEFAULT_SYSTEM_CONFIG
        assert config.energy.reset_energy_pj == 36.0
        assert config.disturbance.rates[1] == 0.0

    def test_custom_composition(self):
        config = SystemConfig(cpu=CPUConfig(cores=4))
        assert config.cpu.cores == 4
        assert config.pcm.channels == 2


class TestEvaluationConfig:
    def test_with_trace_length(self):
        config = EvaluationConfig(trace_length=100, seed=9)
        longer = config.with_trace_length(5000)
        assert longer.trace_length == 5000
        assert longer.seed == 9
        assert config.trace_length == 100

    @pytest.mark.parametrize(
        "field", ["array_backend", "superbatch_size", "fused_tile_lines"]
    )
    def test_batching_fields_are_gone(self, field):
        # Each chunk is one numpy encode; nothing regroups or retiles it.
        with pytest.raises(TypeError, match=field):
            EvaluationConfig(**{field: None})


class TestGranularities:
    def test_full_range(self):
        assert GRANULARITIES_FULL == (8, 16, 32, 64, 128, 256, 512)

    def test_wlc_subset(self):
        assert set(GRANULARITIES_WLC) <= set(GRANULARITIES_FULL)
        assert GRANULARITIES_WLC == (8, 16, 32, 64)
