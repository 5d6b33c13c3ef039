"""Parameter sweeps shared by the figure-reproduction experiments.

Three sweep helpers cover the paper's sensitivity studies:

* :func:`granularity_sweep` -- evaluate one scheme family across data-block
  granularities (Figures 1, 2, 3, 5, 11, 12, 13);
* :func:`energy_level_sweep` -- repeat an evaluation under the four
  intermediate-state energy configurations of Figure 14;
* :func:`compression_coverage` -- fraction of compressible lines per
  benchmark for WLC (k = 4..9), COC and FPC+BDI (Figure 4).

All three run on the parallel evaluation engine
(:mod:`repro.evaluation.parallel`): every (sweep-point x trace) combination
becomes an independent work unit, so an 8-point sweep over 14 traces fans out
112 units across the worker pool.  ``n_jobs=1`` (the default) keeps the exact
serial path and every ``n_jobs`` value produces bit-identical metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..coding.base import WriteEncoder
from ..compression.base import Compressor
from ..compression.coc import COCCompressor
from ..compression.fpc_bdi import DIN_COMPRESSION_BUDGET_BITS, FPCBDICompressor
from ..compression.wlc import WLCCompressor
from ..core.config import DEFAULT_EVALUATION_CONFIG, EvaluationConfig
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel, figure14_energy_models
from ..core.metrics import WriteMetrics
from ..core.symbols import BITS_PER_LINE
from ..workloads.trace import WriteTrace
from .parallel import ParallelRunner, WorkUnit

#: Budget (bits) a COC-compressed line must fit to count as "compressed" in Figure 4.
COC_COVERAGE_BUDGET_BITS = 448

EncoderFactory = Callable[[int, EnergyModel], WriteEncoder]


def granularity_sweep(
    factory: EncoderFactory,
    granularities: Sequence[int],
    traces: Mapping[str, WriteTrace],
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    n_jobs: int = 1,
    runner: Optional[ParallelRunner] = None,
) -> Dict[int, WriteMetrics]:
    """Evaluate ``factory(granularity)`` on every trace for each granularity.

    Returns the per-granularity metrics aggregated across all traces (the
    paper reports the SPEC+PARSEC average).  With ``n_jobs > 1`` the full
    (granularity x trace) cross-product is evaluated concurrently.
    """
    units: List[WorkUnit] = []
    for granularity in granularities:
        encoder = factory(granularity, energy_model)
        for trace in traces.values():
            units.append(WorkUnit(granularity, encoder, trace, config))
    reduced = (runner or ParallelRunner(n_jobs)).run(units)
    return {g: reduced.get(g, WriteMetrics()) for g in granularities}


def energy_level_sweep(
    factory: Callable[[EnergyModel], WriteEncoder],
    baseline_factory: Callable[[EnergyModel], WriteEncoder],
    traces: Mapping[str, WriteTrace],
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    energy_models: Optional[Sequence[EnergyModel]] = None,
    n_jobs: int = 1,
    runner: Optional[ParallelRunner] = None,
) -> Dict[Tuple[float, float], Dict[str, float]]:
    """Figure 14 sweep: scheme-vs-baseline energy improvement per energy level.

    Returns a mapping from ``(S3 SET energy, S4 SET energy)`` to a dictionary
    with the baseline energy, the scheme energy and the percent improvement.
    """
    energy_models = list(energy_models or figure14_energy_models())
    units: List[WorkUnit] = []
    for index, model in enumerate(energy_models):
        scheme = factory(model)
        baseline = baseline_factory(model)
        for trace in traces.values():
            units.append(WorkUnit((index, "scheme"), scheme, trace, config))
            units.append(WorkUnit((index, "baseline"), baseline, trace, config))
    totals = (runner or ParallelRunner(n_jobs)).run(units)

    results: Dict[Tuple[float, float], Dict[str, float]] = {}
    for index, model in enumerate(energy_models):
        scheme_total = totals.get((index, "scheme"), WriteMetrics())
        baseline_total = totals.get((index, "baseline"), WriteMetrics())
        improvement = 0.0
        if baseline_total.avg_energy_pj:
            improvement = 100.0 * (
                baseline_total.avg_energy_pj - scheme_total.avg_energy_pj
            ) / baseline_total.avg_energy_pj
        key = (model.set_energy_pj[2], model.set_energy_pj[3])
        results[key] = {
            "baseline_energy_pj": baseline_total.avg_energy_pj,
            "scheme_energy_pj": scheme_total.avg_energy_pj,
            "improvement_pct": improvement,
        }
    return results


def _coverage_cell(compressor: Compressor, trace: WriteTrace, budget_bits: int) -> float:
    """Coverage of one (compressor, benchmark) cell as a percentage.

    Coverage is measured on the new-data side of ``trace``.  The whole trace
    is the argument so the parallel engine's ``starmap`` can ship it by
    zero-copy transport descriptor instead of pickling arrays into every
    task.
    """
    return 100.0 * compressor.coverage(trace.new, budget_bits)


def compression_coverage(
    traces: Mapping[str, WriteTrace],
    wlc_k_values: Sequence[int] = (4, 5, 6, 7, 8, 9),
    coc_budget_bits: int = COC_COVERAGE_BUDGET_BITS,
    din_budget_bits: int = DIN_COMPRESSION_BUDGET_BITS,
    n_jobs: int = 1,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 4: fraction of compressed memory lines per benchmark and method.

    Coverage is measured on the new-data side of each trace.  WLC counts a
    line as compressed when all words share the top ``k`` bits; COC when the
    bank compresses it within ``coc_budget_bits``; FPC+BDI when it fits the
    DIN budget.  Each (benchmark, method) cell is an independent task on the
    parallel engine.
    """
    methods: List[Tuple[str, Compressor, int]] = [
        (f"{k}-MSBs", WLCCompressor(k=k), BITS_PER_LINE - 1) for k in wlc_k_values
    ]
    methods.append(("COC", COCCompressor(), coc_budget_bits))
    methods.append(("FPC+BDI", FPCBDICompressor(), din_budget_bits))

    names = list(traces)
    runner = runner or ParallelRunner(n_jobs)
    tasks = [
        (compressor, traces[name], budget)
        for name in names
        for _, compressor, budget in methods
    ]
    values = runner.starmap(_coverage_cell, tasks)

    results: Dict[str, Dict[str, float]] = {}
    for row_index, name in enumerate(names):
        offset = row_index * len(methods)
        results[name] = {
            label: values[offset + column]
            for column, (label, _, _) in enumerate(methods)
        }
    if results:
        results["ave."] = {
            label: float(np.mean([row[label] for row in results.values() if label in row]))
            for label, _, _ in methods
        }
    return results
