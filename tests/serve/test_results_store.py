"""Tests of the content-addressed result store.

The key-canonicalisation tests pin the inclusion/exclusion contract from the
``repro.serve.results`` docstring: orchestration knobs (``n_jobs``, backend,
batching, cache budgets) must NOT change the key -- entries written under one
parallelisation serve every other -- while every output-affecting input
(trace contents, scheme, energy model, disturbance rates, chunk size,
sampling mode) MUST.  The store-hit tests assert *bit*-identity between a
fresh computation and a store hit, across worker counts and pool backends.
"""

import json
import threading
from types import SimpleNamespace

import pytest

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.disturbance import DisturbanceModel
from repro.core.energy import EnergyModel
from repro.core.metrics import WriteMetrics
from repro.evaluation.parallel import ParallelRunner, WorkUnit, shared_runner
from repro.evaluation.runner import evaluate_benchmarks, evaluate_schemes
from repro.obs import observation
from repro.serve import results as results_module
from repro.serve.results import (
    RESULT_STORE_VERSION,
    ResultStore,
    ResultStoreError,
    metrics_from_payload,
    metrics_to_payload,
    result_cache_key,
    scheme_cache_key,
    trace_content_digest,
)
from repro.workloads.generator import GENERATOR_VERSION, generate_benchmark_trace

CONFIG = EvaluationConfig(chunk_size=64)


def _key(trace, **overrides):
    encoder = overrides.pop("encoder", make_scheme("wlcrc-16"))
    config = overrides.pop("config", CONFIG)
    return result_cache_key(encoder, trace, config, **overrides)


class TestKeyCanonicalisation:
    def test_orchestration_knobs_do_not_change_the_key(self, gcc_trace):
        """Knobs that cannot change a result are absent from the key."""
        variant = EvaluationConfig(chunk_size=CONFIG.chunk_size, trace_length=999)
        assert _key(gcc_trace, config=variant).digest == _key(gcc_trace).digest

    def test_seed_ignored_on_the_deterministic_path(self, gcc_trace):
        """The expected-value path never draws RNG: seed must not key."""
        a = _key(gcc_trace, config=EvaluationConfig(chunk_size=64, seed=1))
        b = _key(gcc_trace, config=EvaluationConfig(chunk_size=64, seed=2))
        assert a.digest == b.digest
        assert "seed" not in a.payload

    def test_seed_and_unit_index_key_when_sampling(self, gcc_trace):
        mc = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=1)
        mc2 = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=2)
        assert _key(gcc_trace, config=mc).digest != _key(gcc_trace, config=mc2).digest
        assert (
            _key(gcc_trace, config=mc, unit_index=0).digest
            != _key(gcc_trace, config=mc, unit_index=1).digest
        )

    def test_output_affecting_fields_change_the_key(self, gcc_trace, libq_trace):
        base = _key(gcc_trace)
        assert _key(libq_trace).digest != base.digest
        assert _key(gcc_trace, encoder=make_scheme("flipmin")).digest != base.digest
        assert (
            _key(gcc_trace, config=EvaluationConfig(chunk_size=128)).digest
            != base.digest
        )
        assert (
            _key(
                gcc_trace, config=EvaluationConfig(chunk_size=64, sample_disturbance=True)
            ).digest
            != base.digest
        )
        model = DisturbanceModel(rates=(1e-9, 1e-7, 1e-9, 1e-10))
        assert _key(gcc_trace, disturbance_model=model).digest != base.digest

    def test_energy_model_keys_beyond_the_scheme_name(self, gcc_trace):
        """figure-14 sweeps one scheme name under many energy models."""
        hot = make_scheme("wlcrc-16")
        cold = make_scheme("wlcrc-16")
        cold.energy_model = EnergyModel(
            reset_energy_pj=hot.energy_model.reset_energy_pj * 2,
            set_energy_pj=hot.energy_model.set_energy_pj,
        )
        assert hot.name == cold.name
        assert _key(gcc_trace, encoder=hot).digest != _key(gcc_trace, encoder=cold).digest

    def test_trace_digest_ignores_labelling(self):
        a = generate_benchmark_trace("gcc", length=100, seed=3)
        b = generate_benchmark_trace("gcc", length=100, seed=3)
        b.name = "renamed"
        assert trace_content_digest(a) == trace_content_digest(b)
        c = generate_benchmark_trace("gcc", length=100, seed=4)
        assert trace_content_digest(a) != trace_content_digest(c)

    def test_digest_memoised_per_instance_not_per_slice(self, gcc_trace):
        whole = trace_content_digest(gcc_trace)
        assert trace_content_digest(gcc_trace[:50]) != whole
        assert trace_content_digest(gcc_trace) == whole

    @pytest.mark.parametrize("block_lines", [1, 7, 200, 1 << 16])
    def test_trace_digest_ignores_the_block_size(self, monkeypatch, block_lines):
        """Blocked hashing is an implementation detail: block boundaries
        (one line, non-dividing, exactly the length, larger) never show."""
        trace = generate_benchmark_trace("gcc", length=200, seed=7)
        monkeypatch.setattr(results_module, "_DIGEST_BLOCK_LINES", block_lines)
        assert trace_content_digest(trace) == GCC_TRACE_DIGEST

    def test_scheme_key_without_an_energy_model_is_the_name(self):
        encoder = SimpleNamespace(name="custom-scheme")
        assert scheme_cache_key(encoder) == {"scheme": "custom-scheme"}

    def test_key_payload_names_both_versions(self, gcc_trace):
        payload = _key(gcc_trace).payload
        assert payload["store_version"] == RESULT_STORE_VERSION == 1
        assert payload["generator_version"] == GENERATOR_VERSION


#: Content digest of ``generate_benchmark_trace("gcc", length=200, seed=7)``.
GCC_TRACE_DIGEST = "dd1973c9605f167b24c7cbe99f1216cb7354fff182d8a9881747d798311b3090"


class TestKeyStability:
    """Golden digests: a key change orphans every existing store entry.

    The digests were derived by the store that still kept ``index.json``;
    they must keep matching so stores written before its removal keep
    serving hits.  A deliberate key change bumps ``RESULT_STORE_VERSION``
    and re-pins these.
    """

    def test_trace_digest_is_pinned(self, gcc_trace):
        assert trace_content_digest(gcc_trace) == GCC_TRACE_DIGEST

    @pytest.mark.parametrize(
        "scheme, config, unit_index, digest",
        [
            (
                "wlcrc-16",
                EvaluationConfig(chunk_size=64),
                0,
                "301f40a496bc89ed58963284341377900aa393d0bd3de48d1d904b1a4d87c4bd",
            ),
            (
                "flipmin",
                EvaluationConfig(chunk_size=64),
                0,
                "2d89b5bac2f22415121aaa748c9ca3c8a23cfc6e8e092d44327758c75df517ca",
            ),
            (
                "wlcrc-16",
                EvaluationConfig(chunk_size=128),
                0,
                "341275172feaf446c6a0651a0b09355a13d886de31db39e2f9698623c368175c",
            ),
            (
                "wlcrc-16",
                EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=5),
                2,
                "bfdeedac3c9ef449c1165e46ebaea6b9388fe993b2b2bbda444cc528e7537d64",
            ),
        ],
        ids=["wlcrc-16", "flipmin", "chunk-128", "sampled"],
    )
    def test_key_digest_is_pinned(self, gcc_trace, scheme, config, unit_index, digest):
        key = result_cache_key(make_scheme(scheme), gcc_trace, config, unit_index=unit_index)
        assert key.digest == digest


class TestMetricsRoundTrip:
    def test_exact_float_round_trip_through_json(self):
        metrics = WriteMetrics(
            requests=7,
            data_energy_pj=1.1e5 / 3.0,
            aux_energy_pj=0.1 + 0.2,
            updated_data_cells=12345.6789,
            updated_aux_cells=1e-17,
            disturbance_errors=3.0000000000000004,
            compressed_lines=5,
            encoded_lines=7,
        )
        payload = json.loads(json.dumps(metrics_to_payload(metrics)))
        assert metrics_from_payload(payload) == metrics

    def test_missing_field_raises(self):
        with pytest.raises(ResultStoreError):
            metrics_from_payload({"requests": 1})

    @pytest.mark.parametrize("field", results_module._METRIC_FIELDS)
    def test_each_field_is_required(self, field):
        payload = metrics_to_payload(WriteMetrics(requests=3, encoded_lines=3))
        del payload[field]
        with pytest.raises(ResultStoreError, match=field):
            metrics_from_payload(payload)

    def test_counts_come_back_as_ints(self):
        """A record written with ``7.0`` for a count still rebuilds exactly."""
        payload = metrics_to_payload(
            WriteMetrics(requests=7, compressed_lines=5, encoded_lines=7)
        )
        payload.update(requests=7.0, compressed_lines=5.0, encoded_lines=7.0)
        metrics = metrics_from_payload(payload)
        assert all(
            type(getattr(metrics, name)) is int
            for name in ("requests", "compressed_lines", "encoded_lines")
        )
        assert metrics == WriteMetrics(requests=7, compressed_lines=5, encoded_lines=7)


class TestStoreGetPut:
    def _evaluate(self, trace, n_jobs=1, backend="process"):
        unit = WorkUnit("u", make_scheme("wlcrc-16"), trace, CONFIG)
        return ParallelRunner(n_jobs=n_jobs, backend=backend).map([unit])[0]

    def test_miss_put_hit_round_trip(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        assert store.get(key) is None
        fresh = self._evaluate(gcc_trace)
        store.put(key, fresh)
        assert store.get(key) == fresh
        assert store.stats() == {"hits": 1, "misses": 1, "corrupted": 0}
        assert len(store) == 1

    def test_corrupt_record_is_quarantined(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        store.put(key, self._evaluate(gcc_trace))
        path = store._record_path(key.digest)
        path.write_text("not json")
        assert store.get(key) is None
        # The damaged record is moved aside (not silently re-missed forever):
        # it is gone from results/, preserved under corrupt/, and counted.
        assert not path.exists()
        quarantined = store.corrupt_dir() / path.name
        assert quarantined.read_text() == "not json"
        assert store.stats()["corrupted"] == 1
        assert len(store) == 0
        # A re-put repopulates the entry and it serves hits again.
        fresh = self._evaluate(gcc_trace)
        store.put(key, fresh)
        assert store.get(key) == fresh

    def test_collision_degrades_to_plain_miss(self, tmp_path, gcc_trace):
        # A tampered key payload (digest collision stand-in) must miss
        # without being quarantined: the record is valid, just not ours.
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        path = store._record_path(key.digest)
        store.results_dir().mkdir(parents=True, exist_ok=True)
        record = {
            "version": 1,
            "key": {**key.payload, "chunk_size": 999},
            "metrics": metrics_to_payload(self._evaluate(gcc_trace)),
        }
        path.write_text(json.dumps(record))
        assert store.get(key) is None
        assert path.exists()
        assert store.stats()["corrupted"] == 0

    def test_store_holds_only_record_files(self, tmp_path, gcc_trace, libq_trace):
        """No index and no lock file: each entry is its own record."""
        store = ResultStore(tmp_path / "store")
        store.put(_key(gcc_trace), self._evaluate(gcc_trace))
        store.put(_key(libq_trace), self._evaluate(libq_trace))
        assert sorted(p.name for p in store.root.iterdir()) == ["results"]
        assert len(store) == 2

    def test_rejects_a_byte_budget(self, tmp_path):
        with pytest.raises(TypeError):
            ResultStore(tmp_path / "store", max_bytes=1)

    def test_miss_on_a_fresh_root_writes_nothing(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        assert len(store) == 0
        assert store.get(_key(gcc_trace)) is None
        assert not store.root.exists()
        assert store.stats() == {"hits": 0, "misses": 1, "corrupted": 0}

    def test_record_layout(self, tmp_path, gcc_trace):
        """One record per key: version, the full key payload, eight metrics."""
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        fresh = self._evaluate(gcc_trace)
        path = store.put(key, fresh)
        assert path == store.results_dir() / f"{key.digest}.json"
        record = json.loads(path.read_text())
        assert record == {
            "version": RESULT_STORE_VERSION,
            "key": key.payload,
            "metrics": metrics_to_payload(fresh),
        }

    def test_put_is_idempotent_and_leaves_no_temp_files(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        fresh = self._evaluate(gcc_trace)
        first = store.put(key, fresh).read_bytes()
        assert store.put(key, fresh).read_bytes() == first
        assert [p.name for p in store.results_dir().iterdir()] == [f"{key.digest}.json"]

    def test_record_missing_a_metric_is_quarantined(self, tmp_path, gcc_trace):
        """Valid JSON under the right key but without its metrics is damage,
        not a collision: it is moved aside like unparseable bytes."""
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        path = store.put(key, self._evaluate(gcc_trace))
        record = json.loads(path.read_text())
        del record["metrics"]["data_energy_pj"]
        path.write_text(json.dumps(record))
        assert store.get(key) is None
        assert not path.exists()
        assert (store.corrupt_dir() / path.name).is_file()
        assert store.stats() == {"hits": 0, "misses": 1, "corrupted": 1}

    def test_undecodable_record_is_quarantined(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        path = store.put(key, self._evaluate(gcc_trace))
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert store.get(key) is None
        assert (store.corrupt_dir() / path.name).read_bytes() == b"\xff\xfe\x00garbage"
        assert store.stats()["corrupted"] == 1

    def test_concurrent_writers_need_no_lock(self, tmp_path, gcc_trace, libq_trace):
        """Writers racing on one key and on distinct keys all land intact."""
        store = ResultStore(tmp_path / "store")
        entries = [(_key(trace), self._evaluate(trace)) for trace in (gcc_trace, libq_trace)]
        barrier = threading.Barrier(8)

        def write(index):
            key, metrics = entries[index % len(entries)]
            barrier.wait()
            for _ in range(5):
                store.put(key, metrics)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == len(entries)
        assert all(p.suffix == ".json" for p in store.results_dir().iterdir())
        reader = ResultStore(store.root)
        assert [reader.get(key) for key, _ in entries] == [m for _, m in entries]

    def test_streaming_units_have_no_key(self, tmp_path, gcc_trace):
        """A chunk source would need an extra full pass to hash: no key."""

        class Source:
            name = "stream"

            def chunks(self, chunk_size):
                for start in range(0, len(gcc_trace), chunk_size):
                    yield gcc_trace[start : start + chunk_size]

        store = ResultStore(tmp_path / "store")
        streaming = WorkUnit("s", make_scheme("wlcrc-16"), Source(), CONFIG)
        assert store.unit_key(streaming) is None
        whole = WorkUnit("w", make_scheme("wlcrc-16"), gcc_trace, CONFIG)
        assert store.unit_key(whole) == _key(gcc_trace)

    def test_hits_and_misses_reach_the_profile_counters(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        with observation("store") as session:
            store.get(key)
            store.put(key, self._evaluate(gcc_trace))
            store.get(key)
            store.get(key)
        snapshot = session.metrics.snapshot()
        assert snapshot["result_store{result=miss}"]["value"] == 1
        assert snapshot["result_store{result=hit}"]["value"] == 2


#: A record exactly as the store wrote it while it still kept ``index.json``.
LEGACY_RECORD = """{
  "key": {
    "chunk_size": 64,
    "disturbance": [
      0.123,
      0.0,
      0.276,
      0.152
    ],
    "generator_version": 1,
    "sample_disturbance": false,
    "scheme": {
      "energy": [
        36.0,
        0.0,
        20.0,
        307.0,
        547.0
      ],
      "scheme": "wlcrc-16"
    },
    "store_version": 1,
    "trace": "dd1973c9605f167b24c7cbe99f1216cb7354fff182d8a9881747d798311b3090"
  },
  "metrics": {
    "aux_energy_pj": 0.25,
    "compressed_lines": 150,
    "data_energy_pj": 1.5,
    "disturbance_errors": 0.125,
    "encoded_lines": 200,
    "requests": 200,
    "updated_aux_cells": 2.0,
    "updated_data_cells": 10.0
  },
  "version": 1
}"""
LEGACY_DIGEST = "301f40a496bc89ed58963284341377900aa393d0bd3de48d1d904b1a4d87c4bd"
LEGACY_INDEX = {
    "results": {
        LEGACY_DIGEST: {
            "bytes": len(LEGACY_RECORD),
            "file": f"results/{LEGACY_DIGEST}.json",
            "scheme": "wlcrc-16",
            "trace": GCC_TRACE_DIGEST,
        }
    },
    "version": 1,
}


class TestStoreWrittenWithAnIndex:
    """Stores from before ``index.json`` was dropped keep working as is."""

    @pytest.fixture()
    def legacy_root(self, tmp_path):
        root = tmp_path / "store"
        (root / "results").mkdir(parents=True)
        (root / "results" / f"{LEGACY_DIGEST}.json").write_text(LEGACY_RECORD)
        (root / "index.json").write_text(json.dumps(LEGACY_INDEX, indent=2))
        (root / ".index.lock").write_text("")
        return root

    def test_old_record_serves_a_hit(self, legacy_root, gcc_trace):
        store = ResultStore(legacy_root)
        assert store.get(_key(gcc_trace)) == WriteMetrics(
            requests=200,
            data_energy_pj=1.5,
            aux_energy_pj=0.25,
            updated_data_cells=10.0,
            updated_aux_cells=2.0,
            disturbance_errors=0.125,
            compressed_lines=150,
            encoded_lines=200,
        )
        assert store.stats() == {"hits": 1, "misses": 0, "corrupted": 0}

    def test_new_puts_leave_the_old_index_alone(self, legacy_root, libq_trace):
        index_before = (legacy_root / "index.json").read_bytes()
        store = ResultStore(legacy_root)
        store.put(_key(libq_trace), WriteMetrics(requests=1, encoded_lines=1))
        assert (legacy_root / "index.json").read_bytes() == index_before
        assert len(store) == 2


class TestStoreHitBitIdentity:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_hit_equals_fresh_across_pools(self, tmp_path, gcc_trace, backend, n_jobs):
        """A store hit is bit-identical to fresh computation on any pool."""
        trace = gcc_trace[:128]
        units = [
            WorkUnit(name, make_scheme(name), trace, CONFIG)
            for name in ("wlcrc-16", "flipmin", "din")
        ]
        fresh = ParallelRunner(n_jobs=1).map(list(units))
        store = ResultStore(tmp_path / "store")
        writer = ParallelRunner(n_jobs=n_jobs, backend=backend)
        writer.results_store = store
        assert writer.map(list(units)) == fresh
        assert store.misses == len(units) and store.hits == 0
        reader = ParallelRunner(n_jobs=n_jobs, backend=backend)
        reader.results_store = store
        assert reader.map(list(units)) == fresh
        assert store.hits == len(units)

    def test_partial_hits_keep_sampled_rng_indices(self, tmp_path, gcc_trace):
        """Misses must evaluate under their original unit index, so sampled
        disturbance draws the same streams whether or not siblings hit."""
        mc = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=5)
        units = [
            WorkUnit(name, make_scheme(name), gcc_trace, mc)
            for name in ("wlcrc-16", "flipmin", "din")
        ]
        fresh = ParallelRunner(n_jobs=1).map(list(units))
        store = ResultStore(tmp_path / "store")
        # Pre-seed only the middle unit; the third must still evaluate as
        # index 2, not as the first miss in a compacted list.
        store.put(store.unit_key(units[1], 1), fresh[1])
        runner = ParallelRunner(n_jobs=1)
        runner.results_store = store
        assert runner.map(list(units)) == fresh

    def test_shared_runner_rebinds_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = shared_runner(1, "process", results_store=store)
        assert runner.results_store is store
        assert shared_runner(1, "process").results_store is None

    @pytest.mark.parametrize("helper", ["evaluate_schemes", "evaluate_benchmarks"])
    def test_helpers_do_not_leave_the_store_on_a_callers_runner(
        self, tmp_path, gcc_trace, helper
    ):
        """The store and watchdog bind for the helper's call only: the
        caller's runner gets its own values back, so its later ``map`` calls
        do not memoise into a store they never asked for."""
        store = ResultStore(tmp_path / "store")
        own = ResultStore(tmp_path / "own")
        encoder = make_scheme("baseline")
        trace = gcc_trace[:64]
        for before in (None, own):
            runner = ParallelRunner(n_jobs=1, results_store=before, task_timeout=9.0)
            if helper == "evaluate_schemes":
                evaluate_schemes(
                    [encoder], trace, CONFIG, runner=runner,
                    results_store=store, task_timeout=5.0,
                )
            else:
                evaluate_benchmarks(
                    encoder, {"gcc": trace}, CONFIG, runner=runner,
                    results_store=store, task_timeout=5.0,
                )
            assert runner.results_store is before
            assert runner.task_timeout == 9.0
        assert store.misses == 1 and store.hits == 1  # the helper did use it
        runner.map([WorkUnit("k", encoder, trace, CONFIG)])
        assert store.misses == 1 and store.hits == 1
