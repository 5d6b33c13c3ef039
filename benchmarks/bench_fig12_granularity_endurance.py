"""Figure 12: updated cells per request vs granularity for the WLC-based schemes.

Reproduced claim: at 16-bit granularity the restricted coset coding rewrites
fewer (or at worst the same number of) cells than the unrestricted WLC
schemes, and the auxiliary part contributes only a small share of the updates.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

# Reads the granularity sweep cached by bench_fig11, which runs first (name
# order).
BENCHMARK = BenchSpec(
    figure="figure12",
    title="WLC-based schemes: updated cells vs granularity",
    artifacts=("figure12_granularity_endurance.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure12(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure12, experiment_config)

    rows = {}
    for family, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            rows[f"{family} @ {granularity}-bit"] = values
    table = format_series_table(rows, title="Figure 12: WLC-based schemes, updated cells",
                                row_header="series")
    write_result("figure12_granularity_endurance", table)

    wlcrc16 = result["WLCRC"][16]["total"]
    four16 = result["4cosets"][16]["total"]
    three16 = result["3cosets"][16]["total"]
    assert wlcrc16 <= four16 * 1.05
    assert wlcrc16 <= three16 * 1.05
    # The auxiliary part is a minor share of the updated cells everywhere.
    for family, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            assert values["aux"] <= 0.5 * values["blk"], (family, granularity)
