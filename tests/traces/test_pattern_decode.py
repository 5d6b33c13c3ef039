"""External address patterns, ingested, encoded and decoded by every scheme.

The stream, random and consecutive patterns of the ramulator2 and tracehm
trace generators (about 1,000 requests each) are written as ramulator2 and
as tracehm text.  Ingest must recover exactly the written line addresses,
and every registered scheme must decode what it encoded of the synthesised
trace back to the written data.
"""

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.coding.registry import available_schemes
from repro.traces.ingest import ingest_trace_file

N_REQUESTS = 1000
REGION = 0x4000


def pattern(name: str, seed: int = 2018):
    """``(addresses, sizes, is_write)`` of one generator pattern."""
    rng = np.random.default_rng(seed)
    is_write = rng.random(N_REQUESTS) < 0.4
    if name == "stream":  # consecutive 64-byte lines, wrapping in the region
        sizes = np.full(N_REQUESTS, 64)
        addresses = 0x100_0000 + (np.arange(N_REQUESTS) * 64) % REGION
    elif name == "random":  # unaligned, 64-256 bytes anywhere in the region
        sizes = rng.choice((64, 128, 256), size=N_REQUESTS)
        addresses = 0x100_0000 + rng.integers(0, REGION, size=N_REQUESTS)
    else:  # "consecutive": each access starts where the last one ended
        sizes = rng.choice((64, 128, 256), size=N_REQUESTS)
        addresses = 0x100_0000 + (np.cumsum(sizes) - sizes) % REGION
    return addresses, sizes, is_write


def write_text(path, fmt: str, addresses, sizes, is_write):
    if fmt == "ramulator2":
        lines = (
            f"{'W' if w else 'R'} 0x{a:X} 0x{s:X}\n"
            for a, s, w in zip(addresses.tolist(), sizes.tolist(), is_write.tolist())
        )
    else:  # tracehm: one line address per access, a hex write flag
        lines = (f"{i}\t0x{a:x}\t{int(w):x}\n" for i, (a, w) in enumerate(
            zip(addresses.tolist(), is_write.tolist())))
    path.write_text("".join(lines))
    return path


def written_lines(fmt: str, addresses, sizes, is_write) -> np.ndarray:
    """The 64-byte line addresses a dialect's writes touch, in trace order."""
    lines = []
    for a, s, w in zip(addresses.tolist(), sizes.tolist(), is_write.tolist()):
        if w:
            last = a + s - 1 if fmt == "ramulator2" else a
            lines.extend(range(a // 64 * 64, last // 64 * 64 + 64, 64))
    return np.asarray(lines, dtype=np.uint64)


CASES = [(p, fmt) for p in ("stream", "random", "consecutive") for fmt in ("ramulator2", "tracehm")]


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("patterns")
    traces = {}
    for name, fmt in CASES:
        spec = pattern(name)
        path = write_text(tmp / f"{name}-{fmt}.trace", fmt, *spec)
        trace = ingest_trace_file(path, fmt=fmt)
        assert np.array_equal(trace.addresses, written_lines(fmt, *spec)), (name, fmt)
        traces[name, fmt] = trace
    return traces


def test_patterns_rewrite_lines(ingested):
    """Each pattern revisits lines, so decode also runs on rewritten data."""
    for trace in ingested.values():
        assert len(np.unique(trace.addresses)) < len(trace.addresses)


@pytest.mark.parametrize("scheme", available_schemes())
def test_every_scheme_decodes_ingested_patterns(scheme, ingested):
    encoder = make_scheme(scheme)
    for key, trace in ingested.items():
        encoded = encoder.encode_batch(trace.new, trace.old)
        decoded = encoder.decode_states(encoded.states)
        assert np.array_equal(decoded.words, trace.new.words), key
