"""Section VI-B / Table II context: WLCRC hardware overhead.

Regenerates the hardware-overhead numbers (area, delay, energy of the on-chip
WLCRC modules) from the analytical synthesis model calibrated to the paper's
45 nm Design Compiler results, for all four supported granularities, and
verifies the paper's "negligible overhead" claims at the WLCRC-16 design point.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import format_series_table
from repro.hardware import WLCRCSynthesisModel

BENCHMARK = BenchSpec(
    figure="table2",
    title="WLCRC hardware overhead (45 nm synthesis model)",
    artifacts=("table2_hw_overhead.txt",),
)


def bench_hardware_overhead(benchmark):
    model = WLCRCSynthesisModel()
    table_data = run_once(benchmark, model.overhead_table)

    rows = {f"WLCRC-{granularity}": values for granularity, values in table_data.items()}
    table = format_series_table(rows, precision=4, title="WLCRC hardware overhead (45 nm)",
                                row_header="configuration")
    write_result("table2_hw_overhead", table)

    wlcrc16 = table_data[16]
    # Published reference numbers (Section VI-B).
    assert abs(wlcrc16["area_mm2"] - 0.0498) < 1e-6
    assert abs(wlcrc16["write_delay_ns"] - 2.63) < 1e-6
    assert abs(wlcrc16["read_delay_ns"] - 0.89) < 1e-6
    assert abs(wlcrc16["write_energy_pj"] - 0.94) < 1e-6
    # Negligible relative to the PCM die and to the cell-programming energy.
    assert wlcrc16["area_overhead_pct"] < 1.0
    assert wlcrc16["write_energy_overhead_pct"] < 0.1
