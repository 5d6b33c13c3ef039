"""Figure 11: write energy vs data-block granularity for the WLC-based schemes.

Reproduced claims:

* WLCRC's energy optimum is at 16-bit blocks (the paper's WLCRC-16 design
  point), because its restricted coset coding needs only six identical MSBs;
* the unrestricted WLC+4cosets / WLC+3cosets schemes bottom out at 32-bit
  blocks -- at 16 bits they would need nine identical MSBs and lose half the
  compressible lines;
* at 64-bit granularity all three families converge.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

# Figures 11, 12 and 13 share one granularity sweep; this bench runs first
# (name order) and primes the cache for the other two.
BENCHMARK = BenchSpec(
    figure="figure11",
    title="WLC-based schemes: energy vs granularity",
    artifacts=("figure11_granularity_energy.txt",),
    env=("REPRO_BENCH_TRACE_LEN", "REPRO_BENCH_SEED"),
)


def bench_figure11(benchmark, experiment_config):
    result = run_once(benchmark, experiments.figure11, experiment_config)

    rows = {}
    for family, per_granularity in result.items():
        for granularity, values in per_granularity.items():
            rows[f"{family} @ {granularity}-bit"] = values
    table = format_series_table(rows, title="Figure 11: WLC-based schemes, energy (pJ/write)",
                                row_header="series")
    write_result("figure11_granularity_energy", table)

    wlcrc = {g: v["total"] for g, v in result["WLCRC"].items()}
    four = {g: v["total"] for g, v in result["4cosets"].items()}

    # WLCRC's best granularity is 16 bits.
    assert min(wlcrc, key=wlcrc.get) == 16
    # The unrestricted scheme cannot do better below 32-bit blocks.
    assert min(four, key=four.get) in (32, 64)
    assert four[16] > four[32]
    # WLCRC-16 is the overall minimum-energy configuration (within 2 %).
    overall_best = min(min(values["total"] for values in family.values()) for family in result.values())
    assert wlcrc[16] <= overall_best * 1.02
    # At 64-bit blocks the three families converge (within 5 %).
    three = result["3cosets"][64]["total"]
    assert abs(wlcrc[64] - three) <= 0.05 * three
