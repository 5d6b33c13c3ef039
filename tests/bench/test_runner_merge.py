"""Discovery and the in-process runner: record, manifest, failures."""

import json

import pytest

from repro.bench.manifest import MANIFEST_NAME
from repro.bench.registry import discover
from repro.bench.runner import RECORD_NAME, run_benches
from repro.core.errors import BenchError

#: A two-figure fixture suite: deterministic tables plus one perf artifact
#: (whose content differs between runs, like a real wall-clock measurement).
BENCH_ALPHA = '''
from repro.bench import BenchSpec, run_once, write_json, write_result

BENCHMARK = BenchSpec(
    figure="alpha",
    title="Alpha fixture figure",
    artifacts=("alpha.txt",),
    perf_artifacts=("BENCH_alpha.json",),
)

_COUNTER = iter(range(10**9))


def bench_alpha(benchmark):
    table = run_once(benchmark, lambda: "alpha-table")
    write_result("alpha", table)
    write_json("alpha", {"value": 1, "nondeterministic": next(_COUNTER)})
'''

BENCH_BETA = '''
from repro.bench import BenchSpec, run_once, write_result

BENCHMARK = BenchSpec(
    figure="beta",
    title="Beta fixture figure",
    artifacts=("beta.txt",),
)


def bench_beta(benchmark, experiment_config):
    table = run_once(benchmark, lambda: f"beta {experiment_config.trace_length}")
    write_result("beta", table)
'''


@pytest.fixture()
def bench_dir(tmp_path):
    directory = tmp_path / "benchsuite"
    directory.mkdir()
    (directory / "bench_alpha.py").write_text(BENCH_ALPHA)
    (directory / "bench_beta.py").write_text(BENCH_BETA)
    return directory


class TestDiscovery:
    def test_discovers_specs_and_functions(self, bench_dir):
        registry = discover(bench_dir)
        assert list(registry) == ["alpha", "beta"]
        alpha = registry["alpha"].spec
        assert alpha.name == "alpha"
        assert alpha.module == "bench_alpha.py"
        assert alpha.all_artifacts == ("alpha.txt", "BENCH_alpha.json")
        assert [name for name, _ in registry["beta"].functions] == ["bench_beta"]

    def test_module_without_spec_is_rejected(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / "bench_nospec.py").write_text("def bench_x(benchmark): pass\n")
        with pytest.raises(BenchError, match="BENCHMARK"):
            discover(directory)

    def test_duplicate_artifact_owners_rejected(self, tmp_path):
        directory = tmp_path / "dup"
        directory.mkdir()
        module = (
            "from repro.bench import BenchSpec\n"
            "BENCHMARK = BenchSpec(figure='x', title='x', "
            "artifacts=('same.txt',))\n"
            "def bench_x(benchmark): pass\n"
        )
        (directory / "bench_one.py").write_text(module)
        (directory / "bench_two.py").write_text(module)
        with pytest.raises(BenchError, match="same.txt"):
            discover(directory)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="not found"):
            discover(tmp_path / "nowhere")


class TestRunShard:
    def test_unsharded_run_writes_record_and_manifest(self, bench_dir, tmp_path):
        results = tmp_path / "results"
        report = run_benches(bench_dir=bench_dir, results_dir=results)
        assert not report.failures
        assert [outcome.name for outcome in report.outcomes] == ["alpha", "beta"]
        assert (results / "alpha.txt").read_text() == "alpha-table\n"
        record = json.loads((results / RECORD_NAME).read_text())
        assert set(record["benches"]) == {"alpha", "beta"}
        assert all(
            entry["status"] == "passed" for entry in record["benches"].values()
        )
        # Perf artifacts are listed but never checksummed.
        manifest = json.loads((results / MANIFEST_NAME).read_text())
        artifacts = manifest["benchmarks"]["alpha"]["artifacts"]
        assert artifacts["BENCH_alpha.json"] is None
        assert artifacts["alpha.txt"].startswith("sha256:")

    def test_failing_bench_is_reported_and_blocks_manifest(self, tmp_path):
        directory = tmp_path / "failing"
        directory.mkdir()
        (directory / "bench_boom.py").write_text(
            "from repro.bench import BenchSpec\n"
            "BENCHMARK = BenchSpec(figure='boom', title='boom',\n"
            "                      artifacts=('boom.txt',))\n"
            "def bench_boom(benchmark):\n"
            "    raise RuntimeError('kaboom')\n"
        )
        results = tmp_path / "results"
        report = run_benches(bench_dir=directory, results_dir=results)
        assert [outcome.name for outcome in report.failures] == ["boom"]
        assert "kaboom" in report.failures[0].error
        assert not (results / MANIFEST_NAME).exists()

    def test_stale_artifacts_do_not_mask_a_vanished_writer(self, tmp_path):
        # First run writes the artifact; then the module is edited to stop
        # writing it. Discovery must pick up the edited file (no stale module
        # cache) and the rerun must fail instead of passing -- and
        # checksumming -- last run's file.
        directory = tmp_path / "suite"
        directory.mkdir()
        module = directory / "bench_fickle.py"
        module.write_text(
            "from repro.bench import BenchSpec, write_result\n"
            "BENCHMARK = BenchSpec(figure='fickle', title='f',\n"
            "                      artifacts=('fickle.txt',))\n"
            "def bench_fickle(benchmark):\n"
            "    write_result('fickle', 'table')\n"
        )
        results = tmp_path / "results"
        assert not run_benches(bench_dir=directory, results_dir=results).failures
        assert (results / "fickle.txt").is_file()

        import os
        import time

        module.write_text(
            "from repro.bench import BenchSpec\n"
            "BENCHMARK = BenchSpec(figure='fickle', title='f',\n"
            "                      artifacts=('fickle.txt',))\n"
            "def bench_fickle(benchmark):\n"
            "    pass\n"
        )
        # Force a distinct mtime even on coarse-grained filesystems.
        stamp = time.time() + 10
        os.utime(module, (stamp, stamp))
        report = run_benches(bench_dir=directory, results_dir=results)
        assert report.failures
        assert "fickle.txt" in report.failures[0].error
        assert not (results / "fickle.txt").exists()

    def test_undeclared_artifact_fails_the_bench(self, tmp_path):
        directory = tmp_path / "liar"
        directory.mkdir()
        (directory / "bench_liar.py").write_text(
            "from repro.bench import BenchSpec\n"
            "BENCHMARK = BenchSpec(figure='liar', title='liar',\n"
            "                      artifacts=('never_written.txt',))\n"
            "def bench_liar(benchmark): pass\n"
        )
        report = run_benches(bench_dir=directory, results_dir=tmp_path / "results")
        assert report.failures
        assert "never_written.txt" in report.failures[0].error
