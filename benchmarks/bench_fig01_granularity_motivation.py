"""Figure 1: 6cosets write energy vs data-block granularity (random and biased data).

Reproduced claim: as the encoding granularity shrinks from 512 to 8 bits the
data-symbol energy falls while the auxiliary-symbol energy rises, so the total
has a sweet spot well below the line size -- the observation that motivates
fine-grain encoding with cheaper auxiliary storage.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="figure1",
    title="6cosets write energy vs data-block granularity (random and biased)",
    artifacts=("figure01a_random.txt", "figure01b_biased.txt"),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_RANDOM_LINES", "REPRO_BENCH_SEED"),
)


def bench_figure1_random(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure1, "random", experiment_config)
    rows = {f"{g}-bit": values for g, values in result.items()}
    table = format_series_table(rows, title="Figure 1(a): 6cosets on random data (pJ/write)",
                                row_header="granularity")
    write_result("figure01a_random", table)

    # Data-symbol energy decreases monotonically-ish with granularity.
    assert result[8]["blk"] < result[512]["blk"]
    # Auxiliary energy grows as blocks shrink and peaks at 8-bit blocks.
    assert result[8]["aux"] == max(values["aux"] for values in result.values())
    assert result[512]["aux"] == min(values["aux"] for values in result.values())


def bench_figure1_biased(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure1, "biased", experiment_config)
    rows = {f"{g}-bit": values for g, values in result.items()}
    table = format_series_table(rows, title="Figure 1(b): 6cosets on biased data (pJ/write)",
                                row_header="granularity")
    write_result("figure01b_biased", table)

    # Biased (benchmark) data uses considerably less energy than random data
    # (the random-workload result is cached from the previous benchmark).
    random_result = experiments.figure1("random", experiment_config)
    assert result[64]["total"] < random_result[64]["total"]
    assert result[8]["blk"] < result[512]["blk"]
    assert result[8]["aux"] > result[512]["aux"]
