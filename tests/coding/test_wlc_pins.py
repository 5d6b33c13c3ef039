"""Pins of WLC configurations that must stay bit-identical to one another.

With 64-bit blocks a word has one block, so WLCRC's restriction has no
family to choose: ``wlcrc-64`` is the unrestricted C1-C3 word scheme, bit
for bit ``wlc+3cosets-64`` under another name, and the multi-objective
``wlcrc-64-mo`` (whose threshold only re-picks a family) is ``wlcrc-64``.
The pins cover every benchmark profile and a random trace: written states,
aux masks and flags, a stateful re-encode over the written cells, and the
decode of both.
"""

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.workloads.generator import generate_benchmark_trace, generate_random_trace
from repro.workloads.profiles import ALL_BENCHMARKS

LINES = 400


@pytest.fixture(scope="module")
def traces():
    traces = {name: generate_benchmark_trace(name, LINES, seed=3) for name in ALL_BENCHMARKS}
    traces["random"] = generate_random_trace(LINES, seed=3)
    return traces


def observed(encoder, trace):
    """Everything a WLC encoder writes and reads back for ``trace``."""
    first = encoder.encode_batch(trace.new, trace.old)
    again = encoder.encode_against_stored(trace.old, first.states)
    fields = {}
    for label, batch in (("first", first), ("again", again)):
        for view in ("states", "aux_mask", "compressed", "encoded"):
            fields[f"{label}.{view}"] = getattr(batch, view)
        fields[f"{label}.decoded"] = encoder.decode_states(batch.states).words
    return fields


@pytest.mark.parametrize("twin", ["wlc+3cosets-64", "wlcrc-64-mo"])
def test_wlcrc_64_is_bit_identical_to_its_twin(twin, traces):
    wlcrc, other = make_scheme("wlcrc-64"), make_scheme(twin)
    assert wlcrc.name == "wlcrc-64"
    assert other.name == {"wlcrc-64-mo": "wlcrc-64-mo0.01"}.get(twin, twin)
    assert len(traces) == len(ALL_BENCHMARKS) + 1 == 13
    for name, trace in traces.items():
        mine, theirs = observed(wlcrc, trace), observed(other, trace)
        for label, value in mine.items():
            assert np.array_equal(value, theirs[label]), (name, label)
        assert np.array_equal(mine["first.decoded"], trace.new.words), name
        assert np.array_equal(mine["again.decoded"], trace.old.words), name
