"""Stage spans of the coset engines, the byte decode and the metric reduction.

Inside an observation session every ``encode_batch`` records its two stage
spans, ``reference_encode`` and ``encode``, and the engines' shared search
records a ``cost_search`` and a ``select`` span inside each; a byte decode
records a ``decode`` span and the metric reduction a ``disturbance`` span
inside each chunk's ``metrics`` span.  Without a session no span object is
even built.
"""

import numpy as np
import pytest

import repro.obs.core
from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.evaluation.runner import evaluate_trace, metrics_from_encoded
from repro.obs import observation
from repro.workloads.generator import generate_benchmark_trace

SEARCHED = [
    "fnw", "6cosets-16", "4cosets", "3-r-cosets-16", "wlc+4cosets", "wlcrc-16", "wlcrc-16-mo"
]


def _named(session, name):
    return [record for record in session.spans if record.name == name]


@pytest.mark.parametrize("scheme", SEARCHED)
def test_search_spans_nest_in_both_encode_stages(scheme, write_requests):
    encoder = make_scheme(scheme)
    old, new = write_requests
    with observation("test-search") as session:
        encoder.encode_batch(new, old)
    stages = {r.span_id: r.name for r in session.spans if r.name in ("reference_encode", "encode")}
    assert sorted(stages.values()) == ["encode", "reference_encode"]
    for name in ("cost_search", "select"):
        records = _named(session, name)
        assert sorted(stages[r.parent_id] for r in records) == ["encode", "reference_encode"], name
        assert all(r.attrs["scheme"] == encoder.name for r in records)
    for record in _named(session, "select"):
        lines = {"reference_encode": old, "encode": new}[stages[record.parent_id]]
        # The WLC engines search only the compressible lines.
        if hasattr(encoder, "wlc"):
            lines = lines[encoder.wlc.line_compressible(lines)]
        assert record.attrs["lines"] == len(lines) > 0
    for search, select in zip(_named(session, "cost_search"), _named(session, "select")):
        assert search.start_ns + search.dur_ns <= select.start_ns


@pytest.mark.parametrize("scheme", ["baseline", "flipmin"] + SEARCHED)
def test_byte_decode_records_one_decode_span(scheme, write_requests):
    encoder = make_scheme(scheme)
    _, new = write_requests
    states = encoder.encode_reference(new)
    with observation("test-decode") as session:
        assert np.array_equal(encoder.decode_states(states).words, new.words)
    (record,) = _named(session, "decode")
    assert record.attrs == {"scheme": encoder.name, "lines": len(new)}


def test_disturbance_span_nests_in_each_chunk_metrics_span():
    encoder = make_scheme("wlcrc-16")
    trace = generate_benchmark_trace("gcc", 300, seed=4)
    with observation("test-metrics") as session:
        evaluate_trace(encoder, trace, EvaluationConfig(chunk_size=128))
    metrics = {r.span_id for r in _named(session, "metrics")}
    disturbance = _named(session, "disturbance")
    assert len(metrics) == 3
    assert sorted(r.parent_id for r in disturbance) == sorted(metrics)
    assert sorted(r.attrs["lines"] for r in disturbance) == [44, 128, 128]


def test_nothing_is_recorded_without_a_session(write_requests, monkeypatch):
    def no_span(*args, **kwargs):
        raise AssertionError("a span was built without an observation session")

    monkeypatch.setattr(repro.obs.core, "_Span", no_span)
    old, new = write_requests
    for scheme in ["baseline"] + SEARCHED:
        encoder = make_scheme(scheme)
        encoded = encoder.encode_batch(new, old)
        encoder.decode_states(encoded.states)
        metrics_from_encoded(encoded, encoder)
        metrics_from_encoded(encoded, encoder, rng=np.random.default_rng(1))
    assert not repro.obs.core.is_active()
