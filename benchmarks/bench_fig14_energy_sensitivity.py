"""Figure 14: sensitivity of WLCRC-16 to the intermediate-state write energies.

Reproduced claim: even when the SET energies of the two expensive states are
reduced by more than 6x (reflecting future device/programming improvements),
WLCRC-16 still delivers a substantial write-energy improvement over the
differential-write baseline (the paper reports >= 32 %, down from ~52 %).
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="figure14",
    title="WLCRC-16 sensitivity to intermediate-state write energies",
    artifacts=("figure14_energy_sensitivity.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure14(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure14, experiment_config)

    table = format_series_table(result, precision=2,
                                title="Figure 14: WLCRC-16 improvement vs intermediate-state energy",
                                row_header="energy level")
    write_result("figure14_energy_sensitivity", table)

    improvements = {level: values["improvement_pct"] for level, values in result.items()}
    ordered_levels = list(result.keys())
    # The default energy level gives the largest improvement ...
    default_level = ordered_levels[0]
    assert improvements[default_level] == max(improvements.values())
    # ... and even the cheapest intermediate states keep a double-digit
    # improvement (paper: >= 32 % on its traces; the synthetic traces retain
    # a smaller but still substantial margin).
    assert min(improvements.values()) >= 10.0
    # Improvement decreases monotonically as intermediate states get cheaper.
    values = [improvements[level] for level in ordered_levels]
    assert all(a >= b - 1.0 for a, b in zip(values, values[1:]))
