"""Tests of the WriteMetrics accumulator."""

import json
from dataclasses import fields

import pytest

from repro.core.metrics import WriteMetrics, metrics_to_payload, relative_improvement


def _sample(requests=10, data=1000.0, aux=100.0, cells=50.0, aux_cells=5.0, dist=3.0):
    return WriteMetrics(
        requests=requests,
        data_energy_pj=data,
        aux_energy_pj=aux,
        updated_data_cells=cells,
        updated_aux_cells=aux_cells,
        disturbance_errors=dist,
        compressed_lines=6,
        encoded_lines=8,
    )


class TestAverages:
    def test_total_energy(self):
        assert _sample().total_energy_pj == 1100.0

    def test_per_request_averages(self):
        metrics = _sample()
        assert metrics.avg_energy_pj == pytest.approx(110.0)
        assert metrics.avg_data_energy_pj == pytest.approx(100.0)
        assert metrics.avg_aux_energy_pj == pytest.approx(10.0)
        assert metrics.avg_updated_cells == pytest.approx(5.5)
        assert metrics.avg_disturbance_errors == pytest.approx(0.3)
        assert metrics.compressed_fraction == pytest.approx(0.6)
        assert metrics.encoded_fraction == pytest.approx(0.8)

    def test_empty_metrics_average_to_zero(self):
        empty = WriteMetrics()
        assert empty.avg_energy_pj == 0.0
        assert empty.avg_updated_cells == 0.0
        assert empty.compressed_fraction == 0.0


class TestCombination:
    def test_merge_accumulates(self):
        a = _sample()
        b = _sample(requests=5, data=500.0)
        a.merge(b)
        assert a.requests == 15
        assert a.data_energy_pj == 1500.0

    def test_add_does_not_mutate(self):
        a = _sample()
        b = _sample()
        c = a + b
        assert c.requests == 20
        assert a.requests == 10

    def test_combine(self):
        total = WriteMetrics.combine([_sample(), _sample(), WriteMetrics()])
        assert total.requests == 20
        assert total.total_energy_pj == 2200.0

    def test_averages_are_weighted_by_requests(self):
        heavy = _sample(requests=90, data=9000.0, aux=0.0)
        light = _sample(requests=10, data=2000.0, aux=0.0)
        merged = heavy + light
        assert merged.avg_energy_pj == pytest.approx(11000.0 / 100)


class TestPresentation:
    def test_as_dict_keys(self):
        data = _sample().as_dict()
        assert set(data) == {
            "requests",
            "avg_energy_pj",
            "avg_data_energy_pj",
            "avg_aux_energy_pj",
            "avg_updated_cells",
            "avg_disturbance_errors",
            "compressed_fraction",
            "encoded_fraction",
        }


class TestPayload:
    """``metrics_to_payload`` is hashed by the end-to-end benchmark's pins,
    so its form is part of the contract: the raw accumulators, nothing else."""

    AWKWARD = WriteMetrics(
        requests=7,
        data_energy_pj=1.1e5 / 3.0,
        aux_energy_pj=0.1 + 0.2,
        updated_data_cells=12345.6789,
        updated_aux_cells=1e-17,
        disturbance_errors=3.0000000000000004,
        compressed_lines=5,
        encoded_lines=7,
    )

    def test_holds_exactly_the_raw_fields(self):
        payload = metrics_to_payload(self.AWKWARD)
        assert list(payload) == [field.name for field in fields(WriteMetrics)]
        assert len(payload) == 8
        for name, value in payload.items():
            assert value is getattr(self.AWKWARD, name)

    def test_counts_stay_ints(self):
        payload = metrics_to_payload(self.AWKWARD)
        counts = {"requests", "compressed_lines", "encoded_lines"}
        assert {name for name, value in payload.items() if type(value) is int} == counts
        assert all(type(payload[name]) is float for name in set(payload) - counts)

    def test_awkward_floats_round_trip_through_json(self):
        payload = metrics_to_payload(self.AWKWARD)
        decoded = json.loads(json.dumps(payload, sort_keys=True))
        assert decoded == payload
        assert WriteMetrics(**decoded) == self.AWKWARD
        assert all(type(decoded[name]) is type(value) for name, value in payload.items())


class TestRelativeImprovement:
    def test_improvement(self):
        assert relative_improvement(100.0, 60.0) == pytest.approx(0.4)

    def test_regression_is_negative(self):
        assert relative_improvement(100.0, 120.0) == pytest.approx(-0.2)

    def test_zero_baseline(self):
        assert relative_improvement(0.0, 10.0) == 0.0
