"""Figure 13: write-disturbance errors vs granularity for the WLC-based schemes.

Reproduced claim: disturbance stays at a few errors per request for every
configuration and decreases as the granularity becomes coarser (fewer symbol
flips per request).
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

# Reads the granularity sweep cached by bench_fig11, which runs first (name
# order).
BENCHMARK = BenchSpec(
    figure="figure13",
    title="WLC-based schemes: disturbance vs granularity",
    artifacts=("figure13_granularity_disturbance.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure13(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure13, experiment_config)

    rows = {}
    for family, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            rows[f"{family} @ {granularity}-bit"] = values
    table = format_series_table(rows, precision=2,
                                title="Figure 13: WLC-based schemes, disturbance errors",
                                row_header="series")
    write_result("figure13_granularity_disturbance", table)

    for family, per_granularity in result.items():
        values = {g: v["total"] for g, v in per_granularity.items()}
        # A few errors per request for every configuration.
        for granularity, value in values.items():
            assert 0.3 < value < 10.0, (family, granularity, value)
        # Coarser granularity never increases disturbance by much.
        assert values[64] <= values[8] * 1.10, family
