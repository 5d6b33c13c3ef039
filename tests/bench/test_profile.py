"""Profiled bench runs: the span log, the record section, the manifest."""

import json

import pytest

from repro.bench.manifest import MANIFEST_NAME
from repro.bench.runner import RECORD_NAME, TRACE_LOG_NAME, run_benches
from repro.obs import read_jsonl

BENCH_ALPHA = '''
from repro.bench import BenchSpec, run_once, write_result

BENCHMARK = BenchSpec(
    figure="alpha",
    title="Alpha fixture figure",
    artifacts=("alpha.txt",),
)


def bench_alpha(benchmark):
    write_result("alpha", run_once(benchmark, lambda: "alpha-table"))
'''

BENCH_BETA = '''
from repro.bench import BenchSpec, run_once, write_result

BENCHMARK = BenchSpec(
    figure="beta",
    title="Beta fixture figure",
    artifacts=("beta.txt",),
)


def bench_beta(benchmark):
    write_result("beta", run_once(benchmark, lambda: "beta-table"))
'''


@pytest.fixture()
def bench_dir(tmp_path):
    directory = tmp_path / "benchsuite"
    directory.mkdir()
    (directory / "bench_alpha.py").write_text(BENCH_ALPHA)
    (directory / "bench_beta.py").write_text(BENCH_BETA)
    return directory


class TestProfiledShard:
    def test_unprofiled_run_leaves_no_trace_artifacts(self, bench_dir, tmp_path):
        results = tmp_path / "plain"
        report = run_benches(bench_dir=bench_dir, results_dir=results)
        assert report.profile is None
        assert report.trace_path is None
        assert not list(results.glob("*.trace.jsonl"))
        record = json.loads((results / RECORD_NAME).read_text())
        assert "profile" not in record

    def test_profiled_run_writes_span_log_and_record_section(self, bench_dir, tmp_path):
        results = tmp_path / "profiled"
        report = run_benches(bench_dir=bench_dir, results_dir=results, profile=True)
        assert report.trace_path == results / TRACE_LOG_NAME
        spans, metrics, meta = read_jsonl(report.trace_path)
        names = {r.name for r in spans}
        assert "bench-run" in names  # the session root
        bench_spans = [r for r in spans if r.name == "bench_function"]
        assert {r.attrs["bench"] for r in bench_spans} == {"alpha", "beta"}
        record = json.loads((results / RECORD_NAME).read_text())
        assert record["profile"] == report.profile
        assert "bench_function" in record["profile"]["spans"]

    def test_trace_out_writes_chrome_trace(self, bench_dir, tmp_path):
        results = tmp_path / "results"
        out = tmp_path / "run.trace.json"
        report = run_benches(bench_dir=bench_dir, results_dir=results, trace_out=out)
        # --trace-out implies profiling
        assert report.profile is not None
        document = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_rerun_unprofiled_removes_stale_span_log(self, bench_dir, tmp_path):
        results = tmp_path / "results"
        run_benches(bench_dir=bench_dir, results_dir=results, profile=True)
        assert (results / TRACE_LOG_NAME).is_file()
        run_benches(bench_dir=bench_dir, results_dir=results)
        assert not (results / TRACE_LOG_NAME).exists()


class TestMergedTrace:
    def test_profiled_manifest_matches_unprofiled(self, bench_dir, tmp_path):
        profiled = tmp_path / "profiled"
        plain = tmp_path / "plain"
        run_benches(bench_dir=bench_dir, results_dir=profiled, profile=True)
        run_benches(bench_dir=bench_dir, results_dir=plain)
        # observability must not leak into the manifest
        assert (profiled / MANIFEST_NAME).read_bytes() == (plain / MANIFEST_NAME).read_bytes()
