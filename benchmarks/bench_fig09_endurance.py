"""Figure 9: average number of updated cells per write request (endurance).

Reproduced claims:

* WLCRC-16 rewrites noticeably fewer cells than the baseline (paper: ~20 %);
* it is at least as gentle as the line-level coset schemes (6cosets, FlipMin);
* DIN / COC-based schemes rewrite more cells because their compressed layouts
  shift bit positions between consecutive writes.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.coding import FIGURE8_SCHEMES
from repro.evaluation import experiments, format_series_table

# Reads the evaluation cached by bench_fig08, which runs first (name order).
BENCHMARK = BenchSpec(
    figure="figure9",
    title="Updated cells per write request (endurance)",
    artifacts=("figure09_endurance.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure9(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure9, experiment_config, FIGURE8_SCHEMES)

    table = format_series_table(result, title="Figure 9: updated cells per request",
                                row_header="scheme")
    write_result("figure09_endurance", table)

    averages = {scheme: rows["Ave."] for scheme, rows in result.items()}
    assert averages["wlcrc-16"] < 0.95 * averages["baseline"]
    assert averages["wlcrc-16"] < averages["6cosets"]
    assert averages["wlcrc-16"] < averages["flipmin"]
    assert averages["din"] > averages["wlcrc-16"]
    assert averages["coc+4cosets"] > averages["wlcrc-16"]
