"""Self-tests of the benchmark: metric names and counts, and a smoke run.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs use ``--smoke`` (tiny inputs, serial-reference oracle) and
take a few seconds per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import (  # noqa: E402
    COUNTERS,
    END_TO_END,
    MAX_END_TO_END,
    MAX_PER_LAYER,
    NAME_RE,
    PER_LAYER,
    WORKLOADS,
    benchmark_json,
)
from tracing import Tracer, read_spans, span_problems  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == benchmark_json()


def test_metric_names_and_counts():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert all(NAME_RE.match(name) for name in names), names
    assert len(set(names)) == len(names)
    counters = {name for mode in COUNTERS.values() for name, _ in mode}
    assert all(NAME_RE.match(name) for name in counters)
    assert not counters & set(names)
    assert 1 <= len(END_TO_END) <= MAX_END_TO_END
    assert 1 <= len(PER_LAYER) <= MAX_PER_LAYER
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.moves, metric.name
        for target, workload in metric.moves:
            assert target in end_to_end, metric.name
            assert workload in WORKLOADS, metric.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                    "--smoke")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name, _ in COUNTERS[0]:
        assert name in out.stdout
    for metric in END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
        assert metric.name in out.stdout
    assert set(result["metrics"]) == {m.name for m in END_TO_END}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                    "--smoke")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in PER_LAYER}
    for metric in PER_LAYER:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    for name, _ in COUNTERS[1]:
        assert name in out.stdout
    record = json.loads(
        (ROOT / ".perfbench_out" / f"result-{workload}-seed3-trace1.json").read_text()
    )
    assert record["counters"]["coding.decode_mismatches"] == 0
    assert record["span_problems"] == []
    spans = read_spans(ROOT / ".perfbench_out" / f"spans-{workload}-seed3.jsonl")
    assert span_problems(spans, workload) == []


def test_span_check_catches_a_broken_trace(tmp_path):
    tracer = Tracer("w")
    with tracer.span("run"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    good = read_spans(path)
    assert span_problems(good, "w") == []
    assert span_problems(good, "other") != []
    orphaned = [dict(r, parent=99) if r["name"] == "grandchild" else r for r in good]
    assert any("orphan" in p for p in span_problems(orphaned, "w"))
    late = [dict(r, end_ns=r["end_ns"] + 10**9) if r["name"] == "child" else r for r in good]
    assert any("outside parent" in p for p in span_problems(late, "w"))
    two_roots = [dict(r, parent=None) if r["name"] == "child" else r for r in good]
    assert span_problems(two_roots, "w") != []


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
