"""Figure 5: 4cosets vs 3cosets vs restricted 3-r-cosets on benchmark traces.

Reproduced claim: dropping candidate C4 (3cosets) costs almost nothing on
biased data, and restricting the per-block choice to the {C1,C2} / {C1,C3}
families (3-r-cosets) costs only a little more while roughly halving the
auxiliary information -- the key enabler for embedding the auxiliary bits in
WLC's reclaimed space.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="figure5",
    title="4cosets vs 3cosets vs restricted 3-r-cosets",
    artifacts=("figure05_restricted_cosets.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure5(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure5, experiment_config)

    rows = {}
    for scheme, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            rows[f"{scheme} @ {granularity}-bit"] = values
    table = format_series_table(rows, title="Figure 5: restricted coset coding (pJ/write)",
                                row_header="series")
    write_result("figure05_restricted_cosets", table)

    for granularity in (16, 32):
        four = result["4cosets"][granularity]["total"]
        three = result["3cosets"][granularity]["total"]
        restricted = result["3-r-cosets"][granularity]["total"]
        # 3cosets gives up only a little relative to 4cosets ...
        assert three <= four * 1.10
        # ... and the restricted variant stays close to the unrestricted one.
        assert restricted <= three * 1.12
