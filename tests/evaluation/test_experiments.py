"""Tests of the per-figure experiment drivers (small configurations)."""

import pytest

from repro.evaluation import experiments
from repro.evaluation.experiments import ExperimentConfig

#: A deliberately tiny configuration so the experiment drivers stay fast.
TINY = ExperimentConfig(trace_length=60, random_lines=80, seed=3, benchmarks=("gcc", "libq"))
#: Schemes kept cheap for the figure 8-10 driver tests.
FAST_SCHEMES = ("baseline", "fnw", "wlcrc-16")


@pytest.fixture(autouse=True, scope="module")
def _clear_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestTraceConstruction:
    def test_benchmark_traces_cached(self):
        first = experiments.benchmark_traces(TINY)
        second = experiments.benchmark_traces(TINY)
        assert first is second
        assert set(first) == {"gcc", "libq"}
        assert len(first["gcc"]) == 60

    def test_random_trace_length(self):
        assert len(experiments.random_trace(TINY)) == 80

    @pytest.mark.parametrize(
        "field", ["array_backend", "superbatch_size", "fused_tile_lines"]
    )
    def test_batching_fields_are_gone(self, field):
        with pytest.raises(TypeError, match=field):
            ExperimentConfig(**{field: None})


class TestMotivationFigures:
    def test_figure1_shapes(self):
        result = experiments.figure1("random", TINY)
        assert set(result) == set(experiments.FIGURE1_GRANULARITIES)
        for row in result.values():
            assert set(row) == {"blk", "aux", "total"}
            assert row["total"] == pytest.approx(row["blk"] + row["aux"])

    def test_figure1_rejects_unknown_workload(self):
        with pytest.raises(ValueError):
            experiments.figure1("bogus", TINY)

    def test_figure2_and_3_have_both_schemes(self):
        for driver in (experiments.figure2, experiments.figure3):
            result = driver(TINY)
            assert set(result) == {"6cosets", "4cosets"}
            assert set(result["6cosets"]) == set(experiments.FIGURE2_GRANULARITIES)

    def test_figure4_rows(self):
        result = experiments.figure4(TINY)
        assert "ave." in result and "gcc" in result

    def test_figure5_includes_restricted(self):
        result = experiments.figure5(TINY)
        assert set(result) == {"4cosets", "3cosets", "3-r-cosets"}

    def test_table1_matches_paper(self):
        table = experiments.table1()
        assert table["S1"]["C1"] == "00"
        assert table["S1"]["C2"] == "11"
        assert table["S4"]["C1"] == "01"
        assert table["S2"]["C3"] == "01"


class TestComparisonFigures:
    def test_figure8_rows_and_averages(self):
        result = experiments.figure8(TINY, FAST_SCHEMES)
        assert set(result) == set(FAST_SCHEMES)
        row = result["baseline"]
        assert {"gcc", "libq", "HMI Ave.", "LMI Ave.", "Ave."} <= set(row)
        assert row["HMI Ave."] == pytest.approx(row["gcc"])
        assert row["LMI Ave."] == pytest.approx(row["libq"])

    def test_wlcrc_beats_baseline_in_figure8(self):
        result = experiments.figure8(TINY, FAST_SCHEMES)
        assert result["wlcrc-16"]["Ave."] < result["baseline"]["Ave."]

    def test_figure9_and_10_share_the_same_evaluation(self):
        energy = experiments.figure8(TINY, FAST_SCHEMES)
        cells = experiments.figure9(TINY, FAST_SCHEMES)
        disturbance = experiments.figure10(TINY, FAST_SCHEMES)
        assert set(energy) == set(cells) == set(disturbance)
        assert all(value >= 0 for row in disturbance.values() for value in row.values())

    def test_section8d_rows(self):
        result = experiments.section8d_multiobjective(TINY)
        assert "Ave." in result
        assert {"energy_plain", "energy_multi", "cells_plain", "cells_multi"} <= set(result["gcc"])


class TestGranularityAndSensitivity:
    def test_figure11_to_13_families(self):
        for driver in (experiments.figure11, experiments.figure12, experiments.figure13):
            result = driver(TINY)
            assert set(result) == {"4cosets", "3cosets", "WLCRC"}
            assert set(result["WLCRC"]) == {8, 16, 32, 64}

    def test_figure14_levels(self):
        result = experiments.figure14(TINY)
        assert len(result) == 4
        for values in result.values():
            assert values["improvement_pct"] <= 100.0
