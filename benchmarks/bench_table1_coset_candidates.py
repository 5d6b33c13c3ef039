"""Table I: the four proposed coset candidates (symbol-to-state mappings).

This benchmark verifies that the implemented candidates match the published
table cell-for-cell and regenerates it as text.
"""

from repro.bench import BenchSpec, run_once, write_result
from repro.evaluation import experiments, format_series_table

BENCHMARK = BenchSpec(
    figure="table1",
    title="The four proposed coset candidates",
    artifacts=("table1_coset_candidates.txt",),
)

#: Table I of the paper: state -> {candidate -> bit pattern}.
PAPER_TABLE1 = {
    "S1": {"C1": "00", "C2": "11", "C3": "11", "C4": "11"},
    "S2": {"C1": "10", "C2": "00", "C3": "01", "C4": "00"},
    "S3": {"C1": "11", "C2": "10", "C3": "00", "C4": "01"},
    "S4": {"C1": "01", "C2": "01", "C3": "10", "C4": "10"},
}


def bench_table1(benchmark):
    result = run_once(benchmark, experiments.table1)
    table = format_series_table(result, title="Table I: coset candidates", row_header="state")
    write_result("table1_coset_candidates", table)
    assert result == PAPER_TABLE1
