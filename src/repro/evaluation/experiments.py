"""Per-figure / per-table experiment drivers.

Each public function reproduces one figure or table of the paper's evaluation
and returns a plain, JSON-serialisable structure (nested dictionaries of
floats) that the benchmark harness prints as a text table.  The functions are
deterministic given an :class:`ExperimentConfig` and share a module-level
result cache so that e.g. Figures 8, 9 and 10 (which differ only in which
metric they read from the same evaluation) do not re-run the simulation.

The trace lengths default to a laptop-friendly size; the paper's 200-million
line runs are unnecessary for the statistics to converge (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..coding import FIGURE8_SCHEMES, make_scheme
from ..coding.ncosets import make_four_cosets, make_six_cosets, make_three_cosets
from ..coding.restricted import RestrictedCosetEncoder
from ..coding.wlc_cosets import make_wlc_four_cosets, make_wlc_three_cosets
from ..coding.wlcrc import WLCRCEncoder
from ..core.config import EvaluationConfig, GRANULARITIES_WLC
from ..core.cosets import FOUR_COSETS, candidate_names
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.metrics import WriteMetrics
from ..workloads.generator import generate_benchmark_trace, generate_random_trace
from ..workloads.profiles import ALL_BENCHMARKS, HMI_BENCHMARKS, LMI_BENCHMARKS
from ..workloads.trace import WriteTrace
from .parallel import WorkUnit, shared_runner
from .sweeps import compression_coverage, energy_level_sweep, granularity_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only (serve layers above this)
    from ..serve.results import ResultStore

#: Granularities of the Figure 1 motivation study.
FIGURE1_GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)
#: Granularities of the Figure 2/3/5 coset comparisons.
FIGURE2_GRANULARITIES = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    #: Write requests per benchmark trace.
    trace_length: int = 4_000
    #: Lines used for the random-workload studies (Figures 1a and 2).
    random_lines: int = 8_000
    #: PRNG seed for trace generation.
    seed: int = 2018
    #: Benchmarks included in the "biased workload" averages.
    benchmarks: Tuple[str, ...] = ALL_BENCHMARKS
    #: Chunk size of the vectorised evaluation.
    chunk_size: int = 2_048
    #: Worker processes of the parallel evaluation engine (1 = serial,
    #: 0/-1 = every core).  Results are identical for any value, so the
    #: experiment caches deliberately ignore it.
    n_jobs: int = 1
    #: Worker-pool backend: ``"process"`` (default) or ``"thread"``.  The
    #: vectorised compression kernels release the GIL, so threads overlap
    #: nearly as well while skipping process start-up and trace export --
    #: pick ``"thread"`` for small sweeps.  Results are bit-identical for
    #: either value, so the experiment caches ignore it too.
    backend: str = "process"
    #: Optional trace-corpus directory (see :class:`repro.traces.store
    #: .TraceCorpus`).  When set, benchmark traces are generated once into
    #: the corpus (content-addressed by profile, length, seed and generator
    #: version) and memory-mapped from disk on every later run, so the
    #: parallel engine ships workers mmap descriptors instead of trace data.
    trace_dir: Optional[str] = None
    #: Optional byte budget of the corpus's generation cache.  When set (and
    #: ``trace_dir`` is used) the least-recently-used cached traces are
    #: evicted after each cache miss so ``cache/`` cannot grow without
    #: bound; ``repro trace gc`` runs the same collection from the CLI.
    trace_cache_budget: Optional[int] = None
    #: Optional result-store directory (see :class:`repro.serve.results
    #: .ResultStore`).  When set, every driver fan-out consults the
    #: content-addressed result cache before dispatching and writes misses
    #: back, so repeated figure runs -- and CI shards sharing the directory
    #: -- stop recomputing.  Store hits are bit-identical to fresh
    #: computation, so the in-process experiment caches ignore this knob
    #: like they ignore ``n_jobs``.
    results_dir: Optional[str] = None
    #: Per-task watchdog (seconds) of the parallel engine: a worker task
    #: exceeding it is presumed hung and its pool is rebuilt (see
    #: :class:`~repro.evaluation.parallel.ParallelRunner`).  Recovery is
    #: bit-identical, so the experiment caches ignore this knob too.
    task_timeout: Optional[float] = None

    def results_store(self) -> Optional["ResultStore"]:
        """The configured result store, or ``None`` when memoisation is off."""
        if self.results_dir is None:
            return None
        from ..serve.results import ResultStore

        return ResultStore(self.results_dir)

    @property
    def evaluation(self) -> EvaluationConfig:
        """The corresponding low-level evaluation configuration."""
        return EvaluationConfig(
            trace_length=self.trace_length,
            chunk_size=self.chunk_size,
            seed=self.seed,
        )


DEFAULT_EXPERIMENT_CONFIG = ExperimentConfig()

_CACHE: Dict[Tuple, object] = {}


def clear_cache() -> None:
    """Drop all memoised traces and evaluation results."""
    _CACHE.clear()


def _cached(key: Tuple, builder: Callable[[], object]) -> object:
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _runner(config: ExperimentConfig):
    """The shared runner for ``config``, with its result store (re)bound.

    Every driver fan-out acquires the pool through this helper, so the
    content-addressed result cache is consulted exactly when the caller's
    config asks for it -- and never leaks into callers that do not.
    """
    return shared_runner(
        config.n_jobs, config.backend, config.results_store(), config.task_timeout
    )


# ---------------------------------------------------------------------- #
# Trace construction
# ---------------------------------------------------------------------- #
def benchmark_traces(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, WriteTrace]:
    """The per-benchmark synthetic traces used by the biased-workload studies.

    Without a ``trace_dir`` the traces are generated in memory (and memoised
    per process); with one they are served memory-mapped from the corpus's
    content-addressed cache, generating only on the first ever run.
    """
    key = ("traces", config.benchmarks, config.trace_length, config.seed, config.trace_dir)

    def build() -> Dict[str, WriteTrace]:
        if config.trace_dir:
            from ..traces.store import TraceCorpus

            corpus = TraceCorpus(
                config.trace_dir, cache_budget_bytes=config.trace_cache_budget
            )
            return {
                name: corpus.get_or_generate(name, config.trace_length, config.seed)
                for name in config.benchmarks
            }
        return {
            name: generate_benchmark_trace(name, config.trace_length, config.seed)
            for name in config.benchmarks
        }

    return _cached(key, build)  # type: ignore[return-value]


def random_trace(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> WriteTrace:
    """The uniformly random trace used by the random-workload studies."""
    key = ("random-trace", config.random_lines, config.seed)
    return _cached(key, lambda: generate_random_trace(config.random_lines, config.seed))  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Helper aggregations
# ---------------------------------------------------------------------- #
def _aggregate(traces: Mapping[str, WriteTrace], encoder, config: ExperimentConfig) -> WriteMetrics:
    units = [
        WorkUnit("total", encoder, trace, config.evaluation) for trace in traces.values()
    ]
    return _runner(config).run(units).get("total", WriteMetrics())


def _energy_breakdown(metrics: WriteMetrics) -> Dict[str, float]:
    return {
        "blk": metrics.avg_data_energy_pj,
        "aux": metrics.avg_aux_energy_pj,
        "total": metrics.avg_energy_pj,
    }


def _group_average(values: Mapping[str, float], names: Sequence[str]) -> float:
    present = [values[name] for name in names if name in values]
    return float(np.mean(present)) if present else 0.0


# ---------------------------------------------------------------------- #
# Figures 1-5: motivation and coset candidate studies
# ---------------------------------------------------------------------- #
def figure1(
    workload: str = "random", config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG
) -> Dict[int, Dict[str, float]]:
    """Figure 1: 6cosets energy (blk/aux/total) vs granularity, random or biased data."""
    if workload == "random":
        traces: Mapping[str, WriteTrace] = {"random": random_trace(config)}
    elif workload == "biased":
        traces = benchmark_traces(config)
    else:
        raise ValueError("workload must be 'random' or 'biased'")
    sweep = granularity_sweep(
        lambda g, em: make_six_cosets(g, em),
        FIGURE1_GRANULARITIES,
        traces,
        config.evaluation,
        runner=_runner(config),
    )
    return {granularity: _energy_breakdown(metrics) for granularity, metrics in sweep.items()}


def _coset_comparison(
    traces: Mapping[str, WriteTrace],
    config: ExperimentConfig,
    factories: Mapping[str, Callable[[int, EnergyModel], object]],
    granularities: Sequence[int],
) -> Dict[str, Dict[int, Dict[str, float]]]:
    # One fan-out across the whole (family x granularity x trace) cross-product
    # instead of one sweep per family, so every combination runs concurrently.
    units = []
    for label, factory in factories.items():
        for g in granularities:
            encoder = factory(g, DEFAULT_ENERGY_MODEL)
            for trace in traces.values():
                units.append(WorkUnit((label, g), encoder, trace, config.evaluation))
    reduced = _runner(config).run(units)
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for label in factories:
        results[label] = {
            g: _energy_breakdown(reduced.get((label, g), WriteMetrics()))
            for g in granularities
        }
    return results


def figure2(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 2: 6cosets vs 4cosets on random data (aux / blk / total energy)."""
    traces = {"random": random_trace(config)}
    return _coset_comparison(
        traces,
        config,
        {"6cosets": lambda g, em: make_six_cosets(g, em), "4cosets": lambda g, em: make_four_cosets(g, em)},
        FIGURE2_GRANULARITIES,
    )


def figure3(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 3: 6cosets vs 4cosets on the SPEC2006/PARSEC benchmark traces."""
    traces = benchmark_traces(config)
    return _coset_comparison(
        traces,
        config,
        {"6cosets": lambda g, em: make_six_cosets(g, em), "4cosets": lambda g, em: make_four_cosets(g, em)},
        FIGURE2_GRANULARITIES,
    )


def figure4(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[str, float]]:
    """Figure 4: percentage of compressed lines (WLC k=4..9, COC, FPC+BDI) per benchmark."""
    key = ("figure4", config.benchmarks, config.trace_length, config.seed)
    return _cached(
        key,
        lambda: compression_coverage(
            benchmark_traces(config), runner=_runner(config)
        ),
    )  # type: ignore[return-value]


def figure5(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 5: 4cosets vs 3cosets vs restricted 3-r-cosets on the benchmark traces."""
    traces = benchmark_traces(config)
    return _coset_comparison(
        traces,
        config,
        {
            "4cosets": lambda g, em: make_four_cosets(g, em),
            "3cosets": lambda g, em: make_three_cosets(g, em),
            "3-r-cosets": lambda g, em: RestrictedCosetEncoder(g, em),
        },
        FIGURE2_GRANULARITIES,
    )


# ---------------------------------------------------------------------- #
# Table I
# ---------------------------------------------------------------------- #
def table1() -> Dict[str, Dict[str, str]]:
    """Table I: the four proposed coset candidates as state -> symbol mappings."""
    state_names = ("S1", "S2", "S3", "S4")
    bit_patterns = ("00", "01", "10", "11")
    table: Dict[str, Dict[str, str]] = {state: {} for state in state_names}
    for index, candidate in enumerate(FOUR_COSETS):
        name = candidate_names(4)[index]
        for symbol, state in enumerate(candidate):
            table[state_names[state]][name] = bit_patterns[symbol]
    return table


# ---------------------------------------------------------------------- #
# Figures 8-10 and Section VIII-D: full scheme comparison
# ---------------------------------------------------------------------- #
def evaluate_all_schemes(
    config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
    schemes: Sequence[str] = FIGURE8_SCHEMES,
) -> Dict[str, Dict[str, WriteMetrics]]:
    """Evaluate every scheme on every benchmark trace (shared by Figures 8-10)."""
    key = ("all-schemes", tuple(schemes), config.benchmarks, config.trace_length, config.seed)

    def build() -> Dict[str, Dict[str, WriteMetrics]]:
        traces = benchmark_traces(config)
        encoders = {scheme_name: make_scheme(scheme_name) for scheme_name in schemes}
        units = [
            WorkUnit((scheme_name, bench), encoders[scheme_name], trace, config.evaluation)
            for scheme_name in schemes
            for bench, trace in traces.items()
        ]
        per_unit = _runner(config).run(units)
        return {
            scheme_name: {
                bench: per_unit[(scheme_name, bench)] for bench in traces
            }
            for scheme_name in schemes
        }

    return _cached(key, build)  # type: ignore[return-value]


def _per_scheme_rows(
    all_metrics: Mapping[str, Mapping[str, WriteMetrics]],
    value: Callable[[WriteMetrics], float],
) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    for scheme, per_bench in all_metrics.items():
        row = {bench: value(metrics) for bench, metrics in per_bench.items()}
        row["HMI Ave."] = _group_average(row, HMI_BENCHMARKS)
        row["LMI Ave."] = _group_average(row, LMI_BENCHMARKS)
        row["Ave."] = _group_average(row, list(per_bench.keys()))
        rows[scheme] = row
    return rows


def figure8(
    config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
    schemes: Sequence[str] = FIGURE8_SCHEMES,
) -> Dict[str, Dict[str, float]]:
    """Figure 8: average write energy (pJ) per write request, per scheme and benchmark."""
    return _per_scheme_rows(evaluate_all_schemes(config, schemes), lambda m: m.avg_energy_pj)


def figure9(
    config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
    schemes: Sequence[str] = FIGURE8_SCHEMES,
) -> Dict[str, Dict[str, float]]:
    """Figure 9: average updated cells per write request (endurance metric)."""
    return _per_scheme_rows(evaluate_all_schemes(config, schemes), lambda m: m.avg_updated_cells)


def figure10(
    config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
    schemes: Sequence[str] = FIGURE8_SCHEMES,
) -> Dict[str, Dict[str, float]]:
    """Figure 10: average write-disturbance errors per write request."""
    return _per_scheme_rows(
        evaluate_all_schemes(config, schemes), lambda m: m.avg_disturbance_errors
    )


def section8d_multiobjective(
    config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
    threshold: float = 0.01,
) -> Dict[str, Dict[str, float]]:
    """Section VIII-D: multi-objective WLCRC-16 (threshold T) vs plain WLCRC-16."""
    key = ("section8d", threshold, config.benchmarks, config.trace_length, config.seed)

    def build() -> Dict[str, Dict[str, float]]:
        traces = benchmark_traces(config)
        roles = {
            "wlcrc-16": WLCRCEncoder(16),
            "wlcrc-16-mo": WLCRCEncoder(16, endurance_threshold=threshold),
            "baseline": make_scheme("baseline"),
        }
        units = [
            WorkUnit((role, bench), encoder, trace, config.evaluation)
            for bench, trace in traces.items()
            for role, encoder in roles.items()
        ]
        per_unit = _runner(config).run(units)
        rows: Dict[str, Dict[str, float]] = {}
        totals = {role: WriteMetrics() for role in roles}
        for bench in traces:
            plain_metrics = per_unit[("wlcrc-16", bench)]
            multi_metrics = per_unit[("wlcrc-16-mo", bench)]
            base_metrics = per_unit[("baseline", bench)]
            totals["wlcrc-16"].merge(plain_metrics)
            totals["wlcrc-16-mo"].merge(multi_metrics)
            totals["baseline"].merge(base_metrics)
            rows[bench] = {
                "energy_plain": plain_metrics.avg_energy_pj,
                "energy_multi": multi_metrics.avg_energy_pj,
                "cells_plain": plain_metrics.avg_updated_cells,
                "cells_multi": multi_metrics.avg_updated_cells,
            }
        rows["Ave."] = {
            "energy_plain": totals["wlcrc-16"].avg_energy_pj,
            "energy_multi": totals["wlcrc-16-mo"].avg_energy_pj,
            "cells_plain": totals["wlcrc-16"].avg_updated_cells,
            "cells_multi": totals["wlcrc-16-mo"].avg_updated_cells,
            "baseline_energy": totals["baseline"].avg_energy_pj,
            "baseline_cells": totals["baseline"].avg_updated_cells,
        }
        return rows

    return _cached(key, build)  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Figures 11-13: granularity sensitivity of the WLC-based schemes
# ---------------------------------------------------------------------- #
def _wlc_granularity_metrics(
    config: ExperimentConfig,
) -> Dict[str, Dict[int, WriteMetrics]]:
    key = ("wlc-granularity", config.benchmarks, config.trace_length, config.seed)

    def build() -> Dict[str, Dict[int, WriteMetrics]]:
        traces = benchmark_traces(config)
        families: Dict[str, Callable[[int, EnergyModel], object]] = {
            "4cosets": lambda g, em: make_wlc_four_cosets(g, em),
            "3cosets": lambda g, em: make_wlc_three_cosets(g, em),
            "WLCRC": lambda g, em: WLCRCEncoder(g, em),
        }
        # One fan-out over all (family x granularity x trace) combinations.
        units = []
        for label, factory in families.items():
            for g in GRANULARITIES_WLC:
                encoder = factory(g, DEFAULT_ENERGY_MODEL)
                for trace in traces.values():
                    units.append(WorkUnit((label, g), encoder, trace, config.evaluation))
        reduced = _runner(config).run(units)
        return {
            label: {
                g: reduced.get((label, g), WriteMetrics()) for g in GRANULARITIES_WLC
            }
            for label in families
        }

    return _cached(key, build)  # type: ignore[return-value]


def figure11(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 11: write energy (blk/aux) vs granularity for the WLC-based schemes."""
    metrics = _wlc_granularity_metrics(config)
    return {
        label: {g: _energy_breakdown(m) for g, m in per_granularity.items()}
        for label, per_granularity in metrics.items()
    }


def figure12(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 12: updated cells (blk/aux) vs granularity for the WLC-based schemes."""
    metrics = _wlc_granularity_metrics(config)
    return {
        label: {
            g: {
                "blk": m.avg_updated_data_cells,
                "aux": m.avg_updated_aux_cells,
                "total": m.avg_updated_cells,
            }
            for g, m in per_granularity.items()
        }
        for label, per_granularity in metrics.items()
    }


def figure13(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 13: write-disturbance errors vs granularity for the WLC-based schemes."""
    metrics = _wlc_granularity_metrics(config)
    return {
        label: {g: {"total": m.avg_disturbance_errors} for g, m in per_granularity.items()}
        for label, per_granularity in metrics.items()
    }


# ---------------------------------------------------------------------- #
# Figure 14: sensitivity to the intermediate-state energies
# ---------------------------------------------------------------------- #
def figure14(config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG) -> Dict[str, Dict[str, float]]:
    """Figure 14: WLCRC-16 energy improvement over baseline vs S3/S4 write energies."""
    key = ("figure14", config.benchmarks, config.trace_length, config.seed)

    def build() -> Dict[str, Dict[str, float]]:
        traces = benchmark_traces(config)
        sweep = energy_level_sweep(
            factory=lambda em: WLCRCEncoder(16, em),
            baseline_factory=lambda em: make_scheme("baseline", em),
            traces=traces,
            config=config.evaluation,
            runner=_runner(config),
        )
        return {
            f"S3={36 + s3:.0f}pJ / S4={36 + s4:.0f}pJ": values
            for (s3, s4), values in sweep.items()
        }

    return _cached(key, build)  # type: ignore[return-value]
