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

import pytest

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.disturbance import DisturbanceModel
from repro.core.energy import EnergyModel
from repro.core.metrics import WriteMetrics
from repro.evaluation.parallel import ParallelRunner, WorkUnit, shared_runner
from repro.serve.results import (
    ResultStore,
    ResultStoreError,
    metrics_from_payload,
    metrics_to_payload,
    result_cache_key,
    trace_content_digest,
)
from repro.workloads.generator import generate_benchmark_trace

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


class TestStoreGetPutGc:
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
        # it is gone from results/, preserved under corrupt/, out of the
        # index, and counted.
        assert not path.exists()
        quarantined = store.corrupt_dir() / path.name
        assert quarantined.read_text() == "not json"
        assert key.digest not in store._read_index()
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

    def test_gc_evicts_least_recently_used(self, tmp_path, gcc_trace, libq_trace):
        store = ResultStore(tmp_path / "store")
        old_key = _key(gcc_trace)
        new_key = _key(libq_trace)
        store.put(old_key, self._evaluate(gcc_trace))
        store.put(new_key, self._evaluate(libq_trace))
        # Touch the older entry so it becomes the more recent one.
        assert store.get(old_key) is not None
        one_record = store._record_path(old_key.digest).stat().st_size
        report = store.gc(max_bytes=one_record)
        assert report["removed"] == [new_key.digest]
        assert store.get(old_key) is not None
        assert store.get(new_key) is None
        assert new_key.digest not in store._read_index()

    def test_gc_dry_run_removes_nothing(self, tmp_path, gcc_trace):
        store = ResultStore(tmp_path / "store")
        key = _key(gcc_trace)
        store.put(key, self._evaluate(gcc_trace))
        report = store.gc(max_bytes=0, dry_run=True)
        assert report["removed"] == [key.digest] and report["dry_run"]
        assert store.get(key) is not None

    def test_gc_needs_a_budget(self, tmp_path):
        with pytest.raises(ResultStoreError):
            ResultStore(tmp_path / "store").gc()

    def test_put_respects_constructor_budget(self, tmp_path, gcc_trace, libq_trace):
        store = ResultStore(tmp_path / "store", max_bytes=1)
        store.put(_key(gcc_trace), self._evaluate(gcc_trace))
        store.put(_key(libq_trace), self._evaluate(libq_trace))
        assert len(store) == 0


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
