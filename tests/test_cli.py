"""Tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main
from repro.evaluation import experiments

#: The checked-in ramulator2-format sample trace (README's ingest example).
SAMPLE_TRACE = Path(__file__).resolve().parent / "data" / "sample_ramulator2.trace"


@pytest.fixture(autouse=True)
def _clear_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestListCommand:
    def test_list_prints_experiments_and_schemes(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure8" in output
        assert "wlcrc-16" in output

    def test_every_registered_experiment_is_listed(self, capsys):
        main(["list"])
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output


class TestEvaluateCommand:
    def test_evaluate_text_output(self, capsys):
        code = main(["evaluate", "--scheme", "wlcrc-16", "--benchmark", "libq", "--trace-length", "80"])
        assert code == 0
        output = capsys.readouterr().out
        assert "wlcrc-16" in output
        assert "avg_energy_pj" in output

    def test_evaluate_json_output(self, capsys):
        main(["evaluate", "--scheme", "baseline", "--benchmark", "gcc",
              "--trace-length", "60", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "baseline" in payload
        assert payload["baseline"]["requests"] == 60

    @pytest.mark.parametrize(
        "flag, value",
        [("--array-backend", "numpy"), ("--superbatch", "8"), ("--fused-tile-lines", "128")],
    )
    def test_batching_flags_are_gone(self, capsys, flag, value):
        # Every chunk is one encode on numpy; no flag resizes or reroutes it.
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--scheme", "baseline", "--trace-length", "40", flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_array_backend_env_var_is_ignored(self, capsys, monkeypatch):
        argv = ["evaluate", "--scheme", "baseline", "--trace-length", "40", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "not-a-backend")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestExperimentCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "C1" in output and "S4" in output

    def test_hardware_table(self, capsys):
        assert main(["hardware", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "16" in payload

    def test_run_subcommand_equivalent(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "C1" in capsys.readouterr().out

    def test_small_figure_run(self, capsys):
        assert main(["figure4", "--trace-length", "40", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ave." in payload

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])


class TestFriendlyErrors:
    """Unknown names exit 2 with a 'did you mean' hint, not a traceback."""

    def test_unknown_scheme(self, capsys):
        assert main(["evaluate", "--scheme", "wlrc-16", "--trace-length", "40"]) == 2
        err = capsys.readouterr().err
        assert "wlrc-16" in err
        assert "did you mean" in err
        assert "wlcrc-16" in err

    def test_unknown_benchmark(self, capsys):
        assert main(["evaluate", "--benchmark", "gccc", "--trace-length", "40"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "gcc" in err

    def test_bad_trace_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.wtrc"
        assert main(["evaluate", "--trace", str(missing)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_trace_path_suggests_neighbours(self, capsys, tmp_path):
        from repro.workloads.generator import generate_benchmark_trace

        generate_benchmark_trace("gcc", 8, 1).save(tmp_path / "gcc.wtrc")
        assert main(["evaluate", "--trace", str(tmp_path / "gcc2.wtrc")]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "gcc.wtrc" in err

    def test_trace_gen_unknown_benchmark(self, capsys, tmp_path):
        code = main(["trace", "gen", "--benchmark", "gc", "--out", str(tmp_path / "t.wtrc")])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_trace_path_pointing_at_directory(self, capsys, tmp_path):
        assert main(["evaluate", "--trace", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_file(self, capsys, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"definitely not an archive")
        assert main(["evaluate", "--trace", str(junk)]) == 2
        assert "not a write-trace file" in capsys.readouterr().err

    def test_trace_dir_pointing_at_file(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main(["evaluate", "--scheme", "baseline", "--trace-length", "40",
                     "--trace-dir", str(not_a_dir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["figure4", "--trace-length", "40",
                     "--trace-dir", str(not_a_dir)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_numeric_arguments_rejected(self, tmp_path):
        for argv in (
            ["trace", "gen", "--benchmark", "gcc", "--length", "-5",
             "--out", str(tmp_path / "t.wtrc")],
            ["trace", "convert", str(SAMPLE_TRACE), "--seed", "-5",
             "--out", str(tmp_path / "t.wtrc")],
            ["evaluate", "--trace-length", "-5"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_trace_gen_invalid_corpus_name(self, capsys, tmp_path):
        code = main(["trace", "gen", "--benchmark", "gcc", "--length", "10",
                     "--corpus", str(tmp_path / "corpus"), "--name", "a/b"])
        assert code == 2
        assert "invalid corpus trace name" in capsys.readouterr().err


class TestTraceCommands:
    def test_gen_to_file_and_info(self, capsys, tmp_path):
        out = tmp_path / "gcc.wtrc"
        assert main(["trace", "gen", "--benchmark", "gcc", "--length", "50", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["trace", "info", str(out), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["requests"] == 50
        assert info["memory_mapped"] is True
        assert "changed_bit_fraction" not in info  # header-only by default
        assert main(["trace", "info", str(out), "--stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert 0.0 < stats["changed_bit_fraction"] < 1.0

    def test_gen_requires_an_output(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "gen", "--benchmark", "gcc", "--length", "10"])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_out_and_corpus_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "gen", "--benchmark", "gcc", "--length", "10",
                  "--out", str(tmp_path / "t.wtrc"), "--corpus", str(tmp_path / "c")])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_gen_into_corpus_and_ls(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["trace", "gen", "--benchmark", "libq", "--length", "30",
                     "--corpus", str(corpus), "--name", "mylibq"]) == 0
        capsys.readouterr()
        assert main(["trace", "ls", str(corpus), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["mylibq"]["n_lines"] == 30
        assert listing["mylibq"]["profile"] == "libq"

    def test_ls_rejects_non_corpus(self, capsys, tmp_path):
        assert main(["trace", "ls", str(tmp_path)]) == 2
        assert "not a trace corpus" in capsys.readouterr().err

    def test_convert_sample_and_evaluate(self, capsys, tmp_path):
        """Acceptance: convert the checked-in ramulator2 sample, then evaluate."""
        corpus = tmp_path / "corpus"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--corpus", str(corpus),
                     "--name", "sample"]) == 0
        capsys.readouterr()
        trace_file = corpus / "sample.wtrc"
        assert trace_file.exists()
        assert main(["evaluate", "--scheme", "wlcrc-16", "--trace", str(trace_file),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wlcrc-16"]["requests"] == 992  # keyed by scheme

    def test_convert_evaluate_parallel_matches_serial(self, capsys, tmp_path):
        out = tmp_path / "sample.wtrc"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--scheme", "baseline", "--trace", str(out), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--scheme", "baseline", "--trace", str(out),
                     "--jobs", "4", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_convert_bad_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("hello world\n")
        assert main(["trace", "convert", str(bad), "--out", str(tmp_path / "o.wtrc")]) == 2
        assert "cannot detect" in capsys.readouterr().err

    def test_convert_streams_byte_identically(self, capsys, tmp_path):
        """The streamed .wtrc convert path equals the in-memory ingest+save."""
        from repro.traces import ingest_trace_file, save_trace

        out = tmp_path / "streamed.wtrc"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        reference = save_trace(ingest_trace_file(SAMPLE_TRACE), tmp_path / "ref.wtrc")
        assert out.read_bytes() == reference.read_bytes()

    def test_convert_npz_streams_load_equivalently(self, capsys, tmp_path):
        """The streamed .npz convert path loads equal to in-memory ingest+save."""
        import numpy as np

        from repro.traces import ingest_trace_file
        from repro.workloads import WriteTrace

        out = tmp_path / "streamed.npz"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        assert "wrote 992 write requests" in capsys.readouterr().out
        reference = ingest_trace_file(SAMPLE_TRACE)
        loaded = WriteTrace.load(out)
        assert np.array_equal(loaded.old.words, reference.old.words)
        assert np.array_equal(loaded.new.words, reference.new.words)
        assert np.array_equal(loaded.addresses, reference.addresses)
        assert loaded.name == reference.name
        assert loaded.metadata == reference.metadata

    def test_convert_npz_appends_suffix(self, capsys, tmp_path):
        out = tmp_path / "plain"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        assert (tmp_path / "plain.npz").exists()

    def test_evaluate_thread_backend_matches_process(self, capsys, tmp_path):
        out = tmp_path / "sample.wtrc"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--scheme", "wlcrc-16", "--trace", str(out),
                     "--jobs", "3", "--backend", "thread", "--json"]) == 0
        threaded = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--scheme", "wlcrc-16", "--trace", str(out),
                     "--jobs", "3", "--backend", "process", "--json"]) == 0
        process = json.loads(capsys.readouterr().out)
        assert threaded == process

    def test_convert_ramulator_inst_dialect(self, capsys, tmp_path):
        src = tmp_path / "cpu.trace"
        src.write_text("2 4096\n0 4096 8192\n1 64 0x2040\n")
        out = tmp_path / "cpu.wtrc"
        assert main(["trace", "convert", str(src), "--out", str(out)]) == 0
        assert "wrote 2 write requests" in capsys.readouterr().out

    def test_evaluate_ascii_trace_streams(self, capsys, tmp_path):
        """evaluate --trace on a raw ASCII file == convert-then-evaluate."""
        out = tmp_path / "sample.wtrc"
        assert main(["trace", "convert", str(SAMPLE_TRACE), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--scheme", "baseline", "--trace", str(out), "--json"]) == 0
        converted = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--scheme", "baseline", "--trace", str(SAMPLE_TRACE),
                     "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert converted == direct
        assert main(["evaluate", "--scheme", "baseline", "--trace", str(SAMPLE_TRACE),
                     "--jobs", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == direct

    def test_evaluate_ascii_trace_unknown_profile(self, capsys):
        assert main(
            ["evaluate", "--trace", str(SAMPLE_TRACE), "--content-profile", "nope"]
        ) == 2
        assert "unknown profile" in capsys.readouterr().err


class TestTraceGC:
    def _populate(self, tmp_path, benchmarks=("gcc", "lbm")):
        corpus = tmp_path / "corpus"
        for bench in benchmarks:
            assert main(["evaluate", "--scheme", "baseline", "--benchmark", bench,
                         "--trace-length", "60", "--trace-dir", str(corpus)]) == 0
        return corpus

    def test_gc_evicts_to_budget(self, capsys, tmp_path):
        corpus = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["trace", "gc", str(corpus), "--max-bytes", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["removed"]) == 2
        assert not list((corpus / "cache").glob("*.wtrc"))

    def test_gc_dry_run(self, capsys, tmp_path):
        corpus = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["trace", "gc", str(corpus), "--max-bytes", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict" in out
        assert len(list((corpus / "cache").glob("*.wtrc"))) == 2

    def test_gc_size_suffixes(self, capsys, tmp_path):
        corpus = self._populate(tmp_path, benchmarks=("gcc",))
        capsys.readouterr()
        assert main(["trace", "gc", str(corpus), "--max-bytes", "1G"]) == 0
        assert "within budget" in capsys.readouterr().out

    def test_gc_missing_corpus(self, capsys, tmp_path):
        assert main(["trace", "gc", str(tmp_path / "nope"), "--max-bytes", "1M"]) == 2
        assert "not a trace corpus" in capsys.readouterr().err

    def test_non_finite_sizes_rejected_cleanly(self, tmp_path):
        for size in ("inf", "nan", "1e400", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", "gc", str(tmp_path), "--max-bytes", size])
            assert excinfo.value.code == 2

    def test_trace_cache_budget_flag_bounds_cache(self, tmp_path):
        corpus = tmp_path / "corpus"
        for bench in ("gcc", "lbm", "mcf"):
            assert main(["evaluate", "--scheme", "baseline", "--benchmark", bench,
                         "--trace-length", "60", "--trace-dir", str(corpus),
                         "--trace-cache-budget", "40K"]) == 0
        total = sum(p.stat().st_size for p in (corpus / "cache").glob("*.wtrc"))
        assert total <= 40 * 1024


class TestCorpusBackedExperiments:
    def test_trace_dir_caches_and_reproduces(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["evaluate", "--scheme", "baseline", "--benchmark", "gcc",
                     "--trace-length", "60", "--trace-dir", str(corpus), "--json"]) == 0
        corpus_run = json.loads(capsys.readouterr().out)
        assert (corpus / "cache").exists()
        assert main(["evaluate", "--scheme", "baseline", "--benchmark", "gcc",
                     "--trace-length", "60", "--json"]) == 0
        memory_run = json.loads(capsys.readouterr().out)
        assert corpus_run == memory_run


class TestBenchCommands:
    """CLI surface of the benchmark-orchestration subsystem.

    The heavy lifting (partitioning, byte-identity, gating) is covered in
    tests/bench/; these tests drive the argparse layer end-to-end on a tiny
    fixture suite.
    """

    FIXTURE = (
        "from repro.bench import BenchSpec, run_once, write_result\n"
        "BENCHMARK = BenchSpec(figure='mini', title='Mini', cost=1.0,\n"
        "                      artifacts=('mini.txt',))\n"
        "def bench_mini(benchmark):\n"
        "    write_result('mini', run_once(benchmark, lambda: 'mini-table'))\n"
    )

    def _suite(self, tmp_path):
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "bench_mini.py").write_text(self.FIXTURE)
        return directory

    def test_bench_ls_lists_real_registry(self, capsys):
        assert main(["bench", "ls"]) == 0
        out = capsys.readouterr().out
        assert "fig08_write_energy" in out
        assert "streaming_ingest" in out

    def test_bench_ls_json_shard_assignment(self, capsys, tmp_path):
        suite = self._suite(tmp_path)
        assert main(["bench", "ls", "--bench-dir", str(suite), "--shards", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mini"]["figure"] == "mini"
        assert payload["mini"]["shard"] in (1, 2)

    def test_bench_ls_has_no_backend_column(self, capsys):
        assert main(["bench", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("backend_sensitive" not in spec for spec in payload.values())
        assert main(["bench", "ls"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["bench", "figure", "cost_s", "group", "artifacts", "gates"]

    def test_bench_run_merge_compare_roundtrip(self, capsys, tmp_path):
        suite = self._suite(tmp_path)
        results = tmp_path / "results"
        assert main(["bench", "run", "--bench-dir", str(suite),
                     "--results", str(results),
                     "--trajectory-dir", str(tmp_path / "traj")]) == 0
        assert (results / "mini.txt").read_text() == "mini-table\n"
        assert (results / "BENCH_manifest.json").is_file()
        assert (tmp_path / "traj" / "BENCH_manifest.json").is_file()
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["bench", "merge", str(results), "--bench-dir", str(suite),
                     "--out", str(merged), "--no-trajectory"]) == 0
        assert (merged / "BENCH_manifest.json").read_bytes() == (
            results / "BENCH_manifest.json"
        ).read_bytes()
        capsys.readouterr()
        # No gates registered: compare passes and says so.
        assert main(["bench", "compare", "--bench-dir", str(suite),
                     "--results", str(merged),
                     "--baselines", str(tmp_path / "baselines")]) == 0
        assert "no perf gates" in capsys.readouterr().out

    def test_bench_run_bad_shard_selector(self, capsys, tmp_path):
        suite = self._suite(tmp_path)
        assert main(["bench", "run", "--bench-dir", str(suite),
                     "--shard", "5/2"]) == 2
        assert "invalid shard selector" in capsys.readouterr().err

    def test_bench_run_failure_exits_one(self, capsys, tmp_path):
        suite = tmp_path / "boom"
        suite.mkdir()
        (suite / "bench_boom.py").write_text(
            "from repro.bench import BenchSpec\n"
            "BENCHMARK = BenchSpec(figure='boom', title='boom', cost=1.0)\n"
            "def bench_boom(benchmark):\n"
            "    raise RuntimeError('kaboom')\n"
        )
        assert main(["bench", "run", "--bench-dir", str(suite),
                     "--results", str(tmp_path / "results")]) == 1
        assert "kaboom" in capsys.readouterr().err

    def test_bench_merge_missing_dir(self, capsys, tmp_path):
        suite = self._suite(tmp_path)
        assert main(["bench", "merge", str(tmp_path / "nope"),
                     "--bench-dir", str(suite),
                     "--out", str(tmp_path / "merged")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bench_unknown_dir(self, capsys):
        assert main(["bench", "ls", "--bench-dir", "/no/such/dir"]) == 2
        assert "benchmark directory" in capsys.readouterr().err


class TestObservability:
    """--profile / --trace-out plumbing and the `profile` subcommand."""

    def _evaluate(self, extra):
        return main(
            ["evaluate", "--scheme", "baseline", "--benchmark", "gcc",
             "--trace-length", "64", "--json", *extra]
        )

    def test_profile_flag_prints_summary_to_stderr(self, capsys):
        assert self._evaluate(["--profile"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays pure JSON
        assert "Span summary" in captured.err
        assert "evaluate_shard" in captured.err

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "eval.trace.json"
        assert self._evaluate(["--trace-out", str(out)]) == 0
        document = json.loads(out.read_text())
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert events, "trace must contain complete events"
        assert {"evaluate-baseline", "parallel_map"} <= {e["name"] for e in events}

    def test_trace_out_jsonl_suffix_selects_span_log(self, capsys, tmp_path):
        out = tmp_path / "eval.trace.jsonl"
        assert self._evaluate(["--trace-out", str(out)]) == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_observability_off_is_output_identical(self, capsys, tmp_path):
        assert self._evaluate([]) == 0
        plain = capsys.readouterr()
        assert self._evaluate(["--trace-out", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr()
        assert json.loads(traced.out) == json.loads(plain.out)

    def test_profile_command_reads_both_formats(self, capsys, tmp_path):
        chrome = tmp_path / "eval.trace.json"
        jsonl = tmp_path / "eval.trace.jsonl"
        assert self._evaluate(["--trace-out", str(chrome)]) == 0
        assert self._evaluate(["--trace-out", str(jsonl)]) == 0
        capsys.readouterr()
        assert main(["profile", str(chrome)]) == 0
        assert "Span summary" in capsys.readouterr().out
        assert main(["profile", str(jsonl), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "parallel_map" in summary["spans"]
        assert summary["metrics"]["lines_encoded{scheme=baseline}"] == 64

    def test_profile_command_missing_file(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_profile_command_unparseable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace.json"
        bad.write_text("not json")
        assert main(["profile", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_bench_run_profile_emits_trace_artifacts(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "bench_mini.py").write_text(TestBenchCommands.FIXTURE)
        results = tmp_path / "results"
        assert main(["bench", "run", "--bench-dir", str(suite),
                     "--results", str(results), "--profile", "--json",
                     "--no-trajectory"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == str(results / "BENCH_shard_1of1.trace.jsonl")
        assert "bench_function" in payload["profile"]["spans"]

    def test_bench_compare_diagnostics_go_to_stderr(self, capsys, tmp_path):
        """Gate failure: exit 1, table on stdout, diagnostics on stderr only."""
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "bench_gated.py").write_text(
            "from repro.bench import BenchSpec, Gate, write_json\n"
            "BENCHMARK = BenchSpec(figure='gated', title='Gated', cost=1.0,\n"
            "    perf_artifacts=('BENCH_gated.json',),\n"
            "    gates=(Gate(artifact='BENCH_gated.json', metric='speed',\n"
            "                direction='higher', tolerance_pct=10.0),))\n"
            "def bench_gated(benchmark):\n"
            "    write_json('gated', {'speed': 100.0})\n"
        )
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        assert main(["bench", "run", "--bench-dir", str(suite),
                     "--results", str(results), "--no-trajectory"]) == 0
        assert main(["bench", "compare", "--bench-dir", str(suite),
                     "--results", str(results), "--baselines", str(baselines),
                     "--update"]) == 0
        # fake a regression: halve the recorded metric
        gated = results / "BENCH_gated.json"
        payload = json.loads(gated.read_text())
        payload["speed"] = 10.0
        gated.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["--log-level", "error", "bench", "compare",
                     "--bench-dir", str(suite), "--results", str(results),
                     "--baselines", str(baselines)]) == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out  # status column in the table
        assert "FAILED" not in captured.out  # diagnostics never on stdout


class TestServeSubmitDocs:
    """CLI surface of the serving and docs subsystems.

    The protocol itself is covered in tests/serve/; these tests drive the
    argparse layer, the subprocess server lifecycle and the docs commands.
    """

    REPO = Path(__file__).resolve().parents[1]

    def test_serve_submit_round_trip(self, tmp_path):
        """A real server subprocess: submit twice, second answer cached."""
        import os
        import subprocess
        import sys

        env = {**os.environ, "PYTHONPATH": str(self.REPO / "src")}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--results-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True, cwd=str(tmp_path),
        )
        try:
            url = server.stdout.readline().strip()
            assert url.startswith("http://127.0.0.1:")
            from repro.serve.service import submit_request

            request = ["submit", "--url", url, "--scheme", "wlcrc-16",
                       "--benchmark", "gcc", "--trace-length", "120", "--json"]
            # Drive the real client main() in-process against the subprocess.
            import contextlib
            import io

            def run(argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                return json.loads(out.getvalue())

            first = run(request)
            second = run(request)
            assert first["cached"] is False
            assert second["cached"] is True
            assert second["metrics"] == first["metrics"]
            status, health = submit_request(url, "/healthz")
            assert (status, health["status"]) == (200, "ok")
        finally:
            server.terminate()
            server.wait(timeout=30)

    def test_submit_unreachable_server(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:9",
                     "--timeout", "2"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_rejects_non_wtrc_upload(self, capsys, tmp_path):
        trace = tmp_path / "x.trace"
        trace.write_text("W 0x0 64\n")
        assert main(["submit", "--trace", str(trace)]) == 2
        assert ".wtrc" in capsys.readouterr().err

    def test_evaluate_results_dir_memoises(self, capsys, tmp_path):
        store = tmp_path / "store"
        argv = ["evaluate", "--scheme", "wlcrc-16", "--benchmark", "gcc",
                "--trace-length", "80", "--results-dir", str(store), "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (store / "results").is_dir() and any((store / "results").iterdir())
        experiments.clear_cache()
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_docs_cli_prints_and_checks(self, capsys, tmp_path):
        assert main(["docs", "cli", "--docs-dir", str(tmp_path)]) == 0
        reference = capsys.readouterr().out
        assert reference.startswith("# CLI reference")
        assert main(["docs", "cli", "--write", "--docs-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "cli.md").read_text() == reference
        assert main(["docs", "cli", "--check", "--docs-dir", str(tmp_path)]) == 0
        (tmp_path / "cli.md").write_text("stale\n")
        capsys.readouterr()
        assert main(["docs", "cli", "--check", "--docs-dir", str(tmp_path)]) == 2
        assert "stale" in capsys.readouterr().err

    def test_docs_check_repo_tree_is_clean(self, capsys):
        assert main(["docs", "check", "--docs-dir", str(self.REPO / "docs")]) == 0
        assert "docs ok" in capsys.readouterr().out

    def test_docs_check_reports_broken_links(self, capsys, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "page.md").write_text("[gone](missing.md)\n")
        assert main(["docs", "check", "--docs-dir", str(docs)]) == 1
        err = capsys.readouterr().err
        assert "missing.md" in err
        assert "cli.md" in err  # missing generated reference also reported
