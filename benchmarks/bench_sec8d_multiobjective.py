"""Section VIII-D: multi-objective optimisation (energy vs endurance).

Reproduced claim: when the two coset families are within a small threshold of
each other in energy, choosing the family that rewrites fewer cells improves
endurance at a negligible energy cost.  The magnitude of the gain depends on
how often the two families tie, which is workload-dependent; the benchmark
asserts the direction (no meaningful endurance or energy regression) and
records the measured trade-off in the results table.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="section8d",
    title="Multi-objective optimisation: energy vs endurance",
    artifacts=("section8d_multiobjective.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_section8d_multiobjective(benchmark, experiment_config):
    result = run_once(
        benchmark, experiments.section8d_multiobjective, experiment_config, 0.01
    )

    table = format_series_table(result, precision=2,
                                title="Section VIII-D: WLCRC-16 vs multi-objective WLCRC-16 (T=1%)",
                                row_header="benchmark")
    write_result("section8d_multiobjective", table)

    average = result["Ave."]
    # The multi-objective mode must not regress endurance and may only give
    # back a tiny amount of energy (the paper: +1.6 % energy for -19 % cells).
    assert average["cells_multi"] <= average["cells_plain"] * 1.01
    assert average["energy_multi"] <= average["energy_plain"] * 1.03
    # Both variants stay far below the baseline's updated-cell count.
    assert average["cells_multi"] < average["baseline_cells"]
    assert average["energy_multi"] < average["baseline_energy"]
