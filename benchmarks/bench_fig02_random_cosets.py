"""Figure 2: 6cosets vs 4cosets on random data.

Reproduced claim: on random (unbiased) data the six-candidate encoding beats
the four hand-picked candidates on data-symbol energy, because any pair of
symbols may dominate a random block.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="figure2",
    title="6cosets vs 4cosets on random data",
    artifacts=("figure02_random_4cosets_vs_6cosets.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_RANDOM_LINES", "REPRO_BENCH_SEED"),
)


def bench_figure2(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure2, experiment_config)

    rows = {}
    for scheme, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            rows[f"{scheme} @ {granularity}-bit"] = values
    table = format_series_table(rows, title="Figure 2: random data (pJ/write)", row_header="series")
    write_result("figure02_random_4cosets_vs_6cosets", table)

    # 6cosets' flexibility wins on the data symbols for random content.
    for granularity in experiments.FIGURE2_GRANULARITIES:
        assert result["6cosets"][granularity]["blk"] <= result["4cosets"][granularity]["blk"] * 1.02
    # Total energy: 6cosets keeps a visible advantage on random data (Fig. 2c).
    assert result["6cosets"][16]["total"] < result["4cosets"][16]["total"]
