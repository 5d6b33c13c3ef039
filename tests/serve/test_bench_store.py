"""The headline memoisation property of ``repro bench run --results-dir``.

A repeat of the same run under the same config must (a) perform zero
``encode_batch`` calls -- asserted through the obs ``lines_encoded`` counter
the encoders increment -- and (b) regenerate a byte-identical
``BENCH_manifest.json``.  The first run records only store misses, the
second only hits.
"""

import json

import pytest

from repro.bench.runner import RECORD_NAME, discover, run_benches
from repro.evaluation import experiments


@pytest.fixture()
def fig08_registry():
    registry = discover()
    return {"fig08_write_energy": registry["fig08_write_energy"]}


def _run(registry, results_dir, store):
    report = run_benches(
        results_dir=results_dir,
        registry=registry,
        profile=True,
        results_store=store,
    )
    assert not report.failures, report.failures[0].error
    record = json.loads((results_dir / RECORD_NAME).read_text())
    metrics = record["profile"]["metrics"]
    encoded = {k: v for k, v in metrics.items() if k.startswith("lines_encoded")}
    store_ops = {k: v for k, v in metrics.items() if k.startswith("result_store")}
    manifest = (results_dir / "BENCH_manifest.json").read_bytes()
    return encoded, store_ops, manifest


def test_repeat_run_hits_the_store_and_reproduces_the_manifest(
    tmp_path, monkeypatch, fig08_registry
):
    monkeypatch.setenv("REPRO_BENCH_TRACE_LEN", "120")
    monkeypatch.setenv("REPRO_BENCH_RANDOM_LINES", "400")
    store = tmp_path / "results-store"
    experiments.clear_cache()
    try:
        encoded1, ops1, manifest1 = _run(fig08_registry, tmp_path / "run1", store)
        # The in-process experiment cache would mask the store entirely;
        # clearing it is what a fresh CI process looks like.
        experiments.clear_cache()
        encoded2, ops2, manifest2 = _run(fig08_registry, tmp_path / "run2", store)
    finally:
        experiments.clear_cache()
    assert encoded1 and all(v > 0 for v in encoded1.values())
    assert set(ops1) == {"result_store{result=miss}"}
    assert encoded2 == {}  # zero encode_batch calls on the repeat
    assert set(ops2) == {"result_store{result=hit}"}
    assert ops2["result_store{result=hit}"] == ops1["result_store{result=miss}"]
    assert manifest1 == manifest2
