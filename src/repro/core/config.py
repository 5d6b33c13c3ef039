"""Shared configuration objects for experiments and simulations.

The paper's system configuration (Table II) is captured by
:class:`SystemConfig`; the per-experiment evaluation knobs (trace length,
chunking, disturbance counting mode, random seed) live in
:class:`EvaluationConfig`.  Both are plain frozen dataclasses so they can be
passed around, hashed, and printed in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .disturbance import DisturbanceModel, DEFAULT_DISTURBANCE_MODEL
from .energy import EnergyModel, DEFAULT_ENERGY_MODEL

#: Data-block granularities (in bits) evaluated throughout the paper.
GRANULARITIES_FULL = (8, 16, 32, 64, 128, 256, 512)
#: Granularities at which WLC-based encodings are defined (Section VI).
GRANULARITIES_WLC = (8, 16, 32, 64)


@dataclass(frozen=True)
class PCMOrganization:
    """Physical organisation of the PCM main memory (Table II)."""

    capacity_gib: int = 32
    channels: int = 2
    dimms_per_channel: int = 2
    banks_per_dimm: int = 16
    line_bytes: int = 64
    write_queue_entries: int = 32
    write_queue_high_watermark: float = 0.8

    @property
    def total_banks(self) -> int:
        """Total number of banks across all channels and DIMMs."""
        return self.channels * self.dimms_per_channel * self.banks_per_dimm

    @property
    def lines_per_bank(self) -> int:
        """Number of 64-byte lines stored in each bank."""
        total_lines = (self.capacity_gib * (1 << 30)) // self.line_bytes
        return total_lines // self.total_banks


@dataclass(frozen=True)
class CPUConfig:
    """Processor-side configuration used for trace generation (Table II)."""

    cores: int = 8
    frequency_ghz: float = 4.0
    l2_size_kib: int = 2048
    l2_ways: int = 8
    l2_line_bytes: int = 64


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration: CPU, PCM organisation, and cell models."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    pcm: PCMOrganization = field(default_factory=PCMOrganization)
    energy: EnergyModel = field(default_factory=lambda: DEFAULT_ENERGY_MODEL)
    disturbance: DisturbanceModel = field(default_factory=lambda: DEFAULT_DISTURBANCE_MODEL)


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the trace-driven evaluation harness."""

    #: Number of write requests generated per benchmark trace.
    trace_length: int = 20_000
    #: Number of lines processed per vectorised chunk.
    chunk_size: int = 2_048
    #: Seed of the master PRNG used for trace generation.
    seed: int = 2018
    #: When ``True`` disturbance errors are Monte-Carlo sampled instead of
    #: using the deterministic expected-value count.
    sample_disturbance: bool = False

    def with_trace_length(self, trace_length: int) -> "EvaluationConfig":
        """Copy of this config with a different trace length."""
        return replace(self, trace_length=trace_length)


#: Default system configuration matching Table II of the paper.
DEFAULT_SYSTEM_CONFIG = SystemConfig()
#: Default evaluation configuration used by examples and benchmarks.
DEFAULT_EVALUATION_CONFIG = EvaluationConfig()
