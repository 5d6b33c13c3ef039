"""Figure 4: percentage of compressed memory lines (WLC k=4..9, COC, FPC+BDI).

Reproduced claim: WLC with up to 6 reclaimed+1 MSBs compresses the vast
majority of memory lines, far more than FPC+BDI manages within the DIN budget,
while requiring more than 6 identical MSBs (k = 7..9) costs a large fraction
of the coverage -- the reason WLCRC is designed around <= 5 reclaimed bits.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="figure4",
    title="Percentage of compressed memory lines (WLC, COC, FPC+BDI)",
    artifacts=("figure04_compression_coverage.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure4(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure4, experiment_config)

    table = format_series_table(result, title="Figure 4: % of compressed memory lines",
                                row_header="benchmark")
    write_result("figure04_compression_coverage", table)

    average = result["ave."]
    # WLC coverage at k <= 6 is high on every benchmark and ~85-95 % on average.
    assert average["6-MSBs"] > 75.0
    # Coverage shrinks sharply when more MSBs must match (k = 9).
    assert average["9-MSBs"] < average["6-MSBs"] - 15.0
    # WLC (k<=6) covers far more lines than FPC+BDI within the DIN budget.
    assert average["6-MSBs"] > average["FPC+BDI"] + 15.0
    # COC compresses most lines (it optimises coverage), like the paper reports.
    assert average["COC"] > 70.0
