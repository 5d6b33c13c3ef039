"""Tests of the perf-regression gate (``repro bench compare``)."""

import json

import pytest

from repro.bench.compare import (
    CONTEXT_MISMATCH,
    MISSING_BASELINE,
    MISSING_METRIC,
    MISSING_RESULT,
    OK,
    REGRESSION,
    compare,
    update_baselines,
)
from repro.bench.registry import BenchSpec, Gate
from repro.core.errors import BenchError

ARTIFACT = "BENCH_speed.json"


def _specs(tolerance_pct=20.0):
    return {
        "speed": BenchSpec(
            figure="speed",
            title="Speed fixture",
            cost=1.0,
            name="speed",
            module="bench_speed.py",
            perf_artifacts=(ARTIFACT,),
            gates=(
                Gate(
                    artifact=ARTIFACT,
                    metric="throughput",
                    direction="higher",
                    tolerance_pct=tolerance_pct,
                    context=("lines",),
                ),
                Gate(
                    artifact=ARTIFACT,
                    metric="memory.peak_bytes",
                    direction="lower",
                    tolerance_pct=tolerance_pct,
                    context=("lines",),
                ),
            ),
        )
    }


def _write_result(tmp_path, throughput=1000.0, peak=500.0, lines=60000):
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    (results / ARTIFACT).write_text(
        json.dumps(
            {
                "lines": lines,
                "throughput": throughput,
                "memory": {"peak_bytes": peak},
            }
        )
    )
    return results


class TestUpdateBaselines:
    def test_update_writes_values_and_context(self, tmp_path):
        results = _write_result(tmp_path)
        baselines = tmp_path / "baselines"
        written = update_baselines(_specs(), results, baselines)
        assert [path.name for path in written] == ["speed.json"]
        payload = json.loads(written[0].read_text())
        assert payload["metrics"][ARTIFACT]["throughput"] == 1000.0
        assert payload["metrics"][ARTIFACT]["memory.peak_bytes"] == 500.0
        assert payload["context"][ARTIFACT] == {"lines": 60000}

    def test_update_requires_the_artifact(self, tmp_path):
        (tmp_path / "results").mkdir()
        with pytest.raises(BenchError, match="missing"):
            update_baselines(_specs(), tmp_path / "results", tmp_path / "baselines")

    def test_ungated_benches_write_nothing(self, tmp_path):
        specs = {
            "plain": BenchSpec(
                figure="plain", title="plain", cost=1.0, name="plain",
                artifacts=("plain.txt",),
            )
        }
        written = update_baselines(specs, tmp_path, tmp_path / "baselines")
        assert written == []


class TestCompare:
    def _baseline(self, tmp_path, throughput=1000.0, peak=500.0, lines=60000):
        results = _write_result(tmp_path, throughput, peak, lines)
        baselines = tmp_path / "baselines"
        update_baselines(_specs(), results, baselines)
        return baselines

    def test_identical_metrics_pass(self, tmp_path):
        baselines = self._baseline(tmp_path)
        report = compare(_specs(), tmp_path / "results", baselines)
        assert report.ok
        assert {check.status for check in report.checks} == {OK}

    def test_within_tolerance_passes(self, tmp_path):
        baselines = self._baseline(tmp_path)
        _write_result(tmp_path, throughput=850.0, peak=580.0)  # -15 % / +16 %
        report = compare(_specs(tolerance_pct=20.0), tmp_path / "results", baselines)
        assert report.ok

    def test_throughput_drop_past_tolerance_fails(self, tmp_path):
        baselines = self._baseline(tmp_path)
        _write_result(tmp_path, throughput=700.0)  # -30 % < -20 % allowance
        report = compare(_specs(tolerance_pct=20.0), tmp_path / "results", baselines)
        assert not report.ok
        failed = {check.metric: check.status for check in report.failures}
        assert failed == {"throughput": REGRESSION}

    def test_memory_growth_past_tolerance_fails(self, tmp_path):
        baselines = self._baseline(tmp_path)
        _write_result(tmp_path, peak=700.0)  # +40 % > +20 % allowance
        report = compare(_specs(tolerance_pct=20.0), tmp_path / "results", baselines)
        assert [check.metric for check in report.failures] == ["memory.peak_bytes"]

    def test_improvements_always_pass(self, tmp_path):
        baselines = self._baseline(tmp_path)
        _write_result(tmp_path, throughput=5000.0, peak=100.0)
        report = compare(_specs(), tmp_path / "results", baselines)
        assert report.ok

    def test_missing_baseline_warns_but_passes(self, tmp_path):
        results = _write_result(tmp_path)
        report = compare(_specs(), results, tmp_path / "nothing")
        assert report.ok
        assert {check.status for check in report.checks} == {MISSING_BASELINE}

    def test_missing_baseline_fails_in_strict_mode(self, tmp_path):
        results = _write_result(tmp_path)
        report = compare(_specs(), results, tmp_path / "nothing", strict=True)
        assert not report.ok

    def test_missing_result_fails(self, tmp_path):
        baselines = self._baseline(tmp_path)
        (tmp_path / "results" / ARTIFACT).unlink()
        report = compare(_specs(), tmp_path / "results", baselines)
        assert not report.ok
        assert {check.status for check in report.checks} == {MISSING_RESULT}

    def test_missing_metric_fails(self, tmp_path):
        baselines = self._baseline(tmp_path)
        (tmp_path / "results" / ARTIFACT).write_text(json.dumps({"lines": 60000}))
        report = compare(_specs(), tmp_path / "results", baselines)
        assert not report.ok
        assert {check.status for check in report.checks} == {MISSING_METRIC}

    def test_no_gate_is_optional(self):
        # A missing metric always fails (above); there is no soft-miss gate.
        with pytest.raises(TypeError, match="optional"):
            Gate(artifact=ARTIFACT, metric="throughput", direction="higher",
                 tolerance_pct=1.0, optional=True)

    def test_specs_carry_no_backend_sensitivity(self):
        with pytest.raises(TypeError, match="backend_sensitive"):
            BenchSpec(figure="speed", title="Speed fixture", cost=1.0,
                      backend_sensitive=True)

    def test_context_mismatch_skips_the_gate(self, tmp_path):
        baselines = self._baseline(tmp_path, lines=60000)
        _write_result(tmp_path, throughput=1.0, peak=10**9, lines=400000)
        report = compare(_specs(), tmp_path / "results", baselines)
        # A huge "regression" at a different input size is not compared ...
        assert report.ok
        assert {check.status for check in report.checks} == {CONTEXT_MISMATCH}
        # ... unless strict mode insists on comparable baselines.
        assert not compare(
            _specs(), tmp_path / "results", baselines, strict=True
        ).ok

    def test_corrupt_baseline_is_an_error(self, tmp_path):
        results = _write_result(tmp_path)
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "speed.json").write_text("{not json")
        with pytest.raises(BenchError, match="baseline"):
            compare(_specs(), results, baselines)
