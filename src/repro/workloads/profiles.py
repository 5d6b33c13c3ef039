"""Statistical profiles of the SPEC CPU2006 / PARSEC workloads used by the paper.

The original evaluation replays Simics memory-write traces of twelve
write-intensive SPEC CPU2006 benchmarks plus PARSEC's ``canneal``.  Those
traces are not redistributable, so this package models each benchmark with a
*profile*: a distribution over memory-line content types (zero lines, narrow
integers, pointers, floating-point arrays, text, random data) plus the
per-write mutation behaviour (how many words of a line change per write-back).

The profiles are tuned to reproduce the trace properties the paper documents
and depends on:

* the strong bias of data symbols toward ``00`` and ``11`` (runs of zeros and
  of ones from small positive / negative integers);
* Word-Level Compression coverage above 90 % for k <= 6 most-significant bits
  and roughly 50 % for k in 7..9 (Figure 4);
* FPC+BDI coverage of roughly 30 % of lines (Figure 4);
* the split into high-memory-intensity (HMI) and low-memory-intensity (LMI)
  groups, where HMI benchmarks rewrite substantially more cells per request
  (Figures 8-10).

Absolute numbers will not match the authors' testbed, but the relative shapes
(which scheme wins) are preserved: in Figure 8, WLCRC-16 saves ~39% of the
baseline's write energy (the paper reports ~52%) and ~20% against 6cosets
(the paper reports 39%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

#: Content types a generated memory line may have.
LINE_TYPES = (
    "zero",
    "sparse",
    "small_int",
    "small_neg_int",
    "mixed_int",
    "packed16",
    "pointer",
    "float64",
    "float32",
    "text",
    "random",
)

#: Kinds of value a rewritten word can receive on a write-back.
MUTATION_ACTIONS = (
    "same_type",   # redraw a nearby value of the line's content type
    "zero_fill",   # overwrite with zero (initialisation, freed objects)
    "ones_fill",   # overwrite with a small negative value (run of ones)
    "complement",  # sign change / negation of the previous value
    "type_change", # overwrite with a value drawn from the line-type mix
    "low_random",  # re-randomise only the low 32 bits
)

#: Default mutation mix (must sum to 1); profiles may override it.
DEFAULT_MUTATION_MIX: Dict[str, float] = {
    "same_type": 0.36,
    "zero_fill": 0.13,
    "ones_fill": 0.16,
    "complement": 0.11,
    "type_change": 0.13,
    "low_random": 0.11,
}


@dataclass(frozen=True)
class BenchmarkProfile:
    """Synthetic-trace profile of one benchmark.

    Parameters
    ----------
    name:
        Short benchmark name as used in the paper's figures.
    suite:
        ``"spec2006"`` or ``"parsec"``.
    memory_intensity:
        ``"high"`` or ``"low"`` (the HMI / LMI grouping of Figures 8-10).
    line_type_mix:
        Probability of each content type for a freshly generated line.
    magnitude_bits:
        ``(low, mid, high)`` weights of the three integer-magnitude bands used
        by the integer content types: values below 2^32 (deeply compressible),
        values below 2^56 (compressible at k <= 9) and values below 2^59
        (compressible only at k <= 6).  Controls the Figure 4 coverage curve.
    change_word_fraction:
        Average fraction of a line's eight words rewritten per write request;
        the main knob of per-request write energy (HMI vs LMI).
    mutation_mix:
        Distribution over the kinds of value a rewritten word receives (see
        :data:`MUTATION_ACTIONS`).  Real traces overwrite words with zero
        fills, negative values (runs of ones) and freshly allocated objects as
        well as nearby values of the same kind; this mix is what gives the
        written cells the 00/11 bias that coset coding exploits.
    """

    name: str
    suite: str
    memory_intensity: str
    line_type_mix: Mapping[str, float]
    magnitude_bits: Tuple[float, float, float] = (0.45, 0.35, 0.20)
    change_word_fraction: float = 0.5
    mutation_mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MUTATION_MIX)
    )

    def __post_init__(self) -> None:
        total = sum(self.line_type_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"line_type_mix of {self.name} must sum to 1 (got {total})")
        for line_type in self.line_type_mix:
            if line_type not in LINE_TYPES:
                raise ValueError(f"unknown line type {line_type!r} in profile {self.name}")
        mutation_total = sum(self.mutation_mix.values())
        if abs(mutation_total - 1.0) > 1e-6:
            raise ValueError(f"mutation_mix of {self.name} must sum to 1 (got {mutation_total})")
        for action in self.mutation_mix:
            if action not in MUTATION_ACTIONS:
                raise ValueError(f"unknown mutation action {action!r} in profile {self.name}")
        if self.memory_intensity not in ("high", "low"):
            raise ValueError("memory_intensity must be 'high' or 'low'")

    @property
    def is_high_intensity(self) -> bool:
        """``True`` for the HMI group of Figures 8-10."""
        return self.memory_intensity == "high"


def _mix(**kwargs: float) -> Dict[str, float]:
    return dict(kwargs)


#: Per-benchmark profiles, keyed by the short names used in the paper's plots.
PROFILES: Dict[str, BenchmarkProfile] = {
    # ----------------------- High memory intensity ----------------------- #
    "lesl": BenchmarkProfile(
        name="lesl", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.06, sparse=0.06, small_int=0.22, small_neg_int=0.09,
                           mixed_int=0.22, packed16=0.17, pointer=0.07, float64=0.05,
                           float32=0.02, text=0.02, random=0.02),
        magnitude_bits=(0.25, 0.45, 0.30), change_word_fraction=0.85,
    ),
    "milc": BenchmarkProfile(
        name="milc", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.05, sparse=0.05, small_int=0.21, small_neg_int=0.09,
                           mixed_int=0.24, packed16=0.17, pointer=0.06, float64=0.05,
                           float32=0.02, text=0.02, random=0.04),
        magnitude_bits=(0.25, 0.45, 0.30), change_word_fraction=0.90,
    ),
    "wrf": BenchmarkProfile(
        name="wrf", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.08, sparse=0.08, small_int=0.23, small_neg_int=0.08,
                           mixed_int=0.19, packed16=0.16, pointer=0.06, float64=0.06,
                           float32=0.02, text=0.02, random=0.02),
        magnitude_bits=(0.28, 0.45, 0.27), change_word_fraction=0.75,
    ),
    "sopl": BenchmarkProfile(
        name="sopl", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.10, sparse=0.09, small_int=0.25, small_neg_int=0.08,
                           mixed_int=0.17, packed16=0.15, pointer=0.09, float64=0.03,
                           float32=0.01, text=0.01, random=0.02),
        magnitude_bits=(0.32, 0.45, 0.23), change_word_fraction=0.70,
    ),
    "zeus": BenchmarkProfile(
        name="zeus", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.10, sparse=0.08, small_int=0.23, small_neg_int=0.10,
                           mixed_int=0.18, packed16=0.15, pointer=0.07, float64=0.05,
                           float32=0.01, text=0.02, random=0.01),
        magnitude_bits=(0.32, 0.45, 0.23), change_word_fraction=0.65,
    ),
    "lbm": BenchmarkProfile(
        name="lbm", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.07, sparse=0.07, small_int=0.20, small_neg_int=0.08,
                           mixed_int=0.23, packed16=0.17, pointer=0.04, float64=0.06,
                           float32=0.02, text=0.02, random=0.04),
        magnitude_bits=(0.25, 0.45, 0.30), change_word_fraction=0.60,
    ),
    "gcc": BenchmarkProfile(
        name="gcc", suite="spec2006", memory_intensity="high",
        line_type_mix=_mix(zero=0.13, sparse=0.10, small_int=0.24, small_neg_int=0.08,
                           mixed_int=0.12, packed16=0.12, pointer=0.13, float64=0.01,
                           float32=0.01, text=0.04, random=0.02),
        magnitude_bits=(0.35, 0.45, 0.20), change_word_fraction=0.55,
    ),
    # ----------------------- Low memory intensity ------------------------ #
    "asta": BenchmarkProfile(
        name="asta", suite="spec2006", memory_intensity="low",
        line_type_mix=_mix(zero=0.14, sparse=0.11, small_int=0.22, small_neg_int=0.06,
                           mixed_int=0.11, packed16=0.11, pointer=0.17, float64=0.01,
                           float32=0.01, text=0.03, random=0.03),
        magnitude_bits=(0.35, 0.45, 0.20), change_word_fraction=0.30,
    ),
    "mcf": BenchmarkProfile(
        name="mcf", suite="spec2006", memory_intensity="low",
        line_type_mix=_mix(zero=0.13, sparse=0.12, small_int=0.22, small_neg_int=0.06,
                           mixed_int=0.11, packed16=0.11, pointer=0.18, float64=0.01,
                           float32=0.00, text=0.03, random=0.03),
        magnitude_bits=(0.32, 0.46, 0.22), change_word_fraction=0.30,
    ),
    "cann": BenchmarkProfile(
        name="cann", suite="parsec", memory_intensity="low",
        line_type_mix=_mix(zero=0.11, sparse=0.10, small_int=0.20, small_neg_int=0.06,
                           mixed_int=0.13, packed16=0.12, pointer=0.18, float64=0.04,
                           float32=0.01, text=0.03, random=0.02),
        magnitude_bits=(0.32, 0.46, 0.22), change_word_fraction=0.35,
    ),
    "libq": BenchmarkProfile(
        name="libq", suite="spec2006", memory_intensity="low",
        line_type_mix=_mix(zero=0.16, sparse=0.14, small_int=0.26, small_neg_int=0.06,
                           mixed_int=0.10, packed16=0.11, pointer=0.07, float64=0.02,
                           float32=0.01, text=0.02, random=0.05),
        magnitude_bits=(0.38, 0.44, 0.18), change_word_fraction=0.25,
    ),
    "omne": BenchmarkProfile(
        name="omne", suite="spec2006", memory_intensity="low",
        line_type_mix=_mix(zero=0.13, sparse=0.11, small_int=0.20, small_neg_int=0.06,
                           mixed_int=0.11, packed16=0.11, pointer=0.17, float64=0.01,
                           float32=0.01, text=0.04, random=0.05),
        magnitude_bits=(0.32, 0.46, 0.22), change_word_fraction=0.30,
    ),
}

#: High-memory-intensity benchmarks, in the order of Figure 8.
HMI_BENCHMARKS: Tuple[str, ...] = ("lesl", "milc", "wrf", "sopl", "zeus", "lbm", "gcc")
#: Low-memory-intensity benchmarks, in the order of Figure 8.
LMI_BENCHMARKS: Tuple[str, ...] = ("asta", "mcf", "cann", "libq", "omne")
#: All benchmarks evaluated by the paper, HMI first.
ALL_BENCHMARKS: Tuple[str, ...] = HMI_BENCHMARKS + LMI_BENCHMARKS


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by its short name (case-insensitive)."""
    key = name.strip().lower()
    if key not in PROFILES:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(PROFILES)}")
    return PROFILES[key]
