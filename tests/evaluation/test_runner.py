"""Tests of the trace-driven evaluation runner."""

import tracemalloc

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.coding.ncosets import make_three_cosets
from repro.core.config import EvaluationConfig
from repro.core.disturbance import DisturbanceModel
from repro.evaluation.runner import (
    average_metrics,
    evaluate_benchmarks,
    evaluate_schemes,
    evaluate_trace,
    metrics_from_encoded,
)
from repro.obs import observation
from repro.workloads.generator import generate_benchmark_trace


class TestMetricsFromEncoded:
    def test_energy_split_matches_masks(self, gcc_trace):
        encoder = make_scheme("fnw")
        encoded = encoder.encode_batch(gcc_trace.new[:32], gcc_trace.old[:32])
        metrics = metrics_from_encoded(encoded, encoder)
        total = encoder.energy_model.cell_write_energy(encoded.states, encoded.changed).sum()
        assert metrics.total_energy_pj == total
        assert metrics.updated_cells == encoded.changed.sum()

    def test_sampled_disturbance_is_an_integer_count(self, gcc_trace):
        encoder = make_scheme("baseline")
        encoded = encoder.encode_batch(gcc_trace.new[:16], gcc_trace.old[:16])
        metrics = metrics_from_encoded(encoded, encoder, rng=np.random.default_rng(1))
        assert metrics.disturbance_errors == int(metrics.disturbance_errors)

    def test_zero_rate_model_reports_zero(self, gcc_trace):
        encoder = make_scheme("baseline")
        encoded = encoder.encode_batch(gcc_trace.new[:16], gcc_trace.old[:16])
        model = DisturbanceModel(rates=(0.0, 0.0, 0.0, 0.0))
        assert metrics_from_encoded(encoded, encoder, model).disturbance_errors == 0.0


class TestEvaluateTrace:
    def test_counts_every_request(self, gcc_trace):
        metrics = evaluate_trace(make_scheme("baseline"), gcc_trace)
        assert metrics.requests == len(gcc_trace)

    def test_chunking_does_not_change_results(self, gcc_trace):
        encoder = make_scheme("wlcrc-16")
        small_chunks = evaluate_trace(encoder, gcc_trace, EvaluationConfig(chunk_size=17))
        one_chunk = evaluate_trace(encoder, gcc_trace, EvaluationConfig(chunk_size=10_000))
        assert small_chunks.avg_energy_pj == pytest.approx(one_chunk.avg_energy_pj)
        assert small_chunks.avg_updated_cells == pytest.approx(one_chunk.avg_updated_cells)

    def test_deterministic(self, gcc_trace):
        encoder = make_scheme("wlcrc-16")
        a = evaluate_trace(encoder, gcc_trace)
        b = evaluate_trace(encoder, gcc_trace)
        assert a.avg_energy_pj == b.avg_energy_pj

    def test_sampled_disturbance_mode(self, gcc_trace):
        config = EvaluationConfig(sample_disturbance=True, seed=3)
        metrics = evaluate_trace(make_scheme("baseline"), gcc_trace[:64], config)
        assert metrics.disturbance_errors >= 0


class TestObservability:
    def test_peak_memory_gauges_recorded(self):
        encoder = make_three_cosets(64)
        trace = generate_benchmark_trace("gcc", 600, seed=3)
        tracemalloc.start()
        try:
            with observation("runner-test") as session:
                evaluate_trace(encoder, trace, EvaluationConfig())
        finally:
            tracemalloc.stop()
        snapshot = session.metrics.snapshot()
        rss = snapshot.get("peak_rss_bytes")
        traced = snapshot.get("tracemalloc_peak_bytes")
        assert rss is not None and rss["type"] == "gauge" and rss["value"] > 0
        assert traced is not None and traced["value"] > 0
        spans = {record.name for record in session.spans}
        assert "encode_batch" in spans


class TestMultiSchemeHelpers:
    def test_evaluate_schemes(self, gcc_trace):
        encoders = [make_scheme("baseline"), make_scheme("fnw")]
        results = evaluate_schemes(encoders, gcc_trace[:64])
        assert set(results) == {"baseline", "fnw-128"}

    def test_evaluate_benchmarks_and_average(self, gcc_trace, libq_trace):
        results = evaluate_benchmarks(make_scheme("baseline"), {"gcc": gcc_trace, "libq": libq_trace})
        combined = average_metrics(results)
        assert combined.requests == len(gcc_trace) + len(libq_trace)
        assert combined.total_energy_pj == pytest.approx(
            results["gcc"].total_energy_pj + results["libq"].total_energy_pj
        )

    def test_hmi_benchmark_uses_more_energy_than_lmi(self, gcc_trace, libq_trace):
        """The HMI/LMI grouping of Figure 8 must be visible in the traces."""
        encoder = make_scheme("baseline")
        gcc = evaluate_trace(encoder, gcc_trace)
        libq = evaluate_trace(encoder, libq_trace)
        assert gcc.avg_energy_pj > libq.avg_energy_pj
