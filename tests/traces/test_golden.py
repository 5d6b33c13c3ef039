"""Golden sha256 digests of ingest and generation output.

Every trace here is a pure function of its inputs, so any change that
moves one parsed address, one synthesised word or one generated word
changes a digest.  Only a deliberate algorithm change may re-record them,
and it must bump ``SYNTHESIS_VERSION`` or ``GENERATOR_VERSION`` with them.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.traces.ingest import SYNTHESIS_VERSION, stream_ingest_to_wtrc
from repro.workloads.generator import GENERATOR_VERSION, generate_benchmark_trace

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample_ramulator2.trace"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_mixed_ramulator(path: Path, n_requests: int = 6000, seed: int = 77) -> Path:
    """A seeded ramulator2 text that rewrites a small region across many quanta.

    Mixes streamed, random and consecutive accesses of 64-256 bytes with
    every operation spelling, missing sizes, ``0X`` prefixes, comments,
    blank lines and CRLF endings, so it spans several 64 KiB parse blocks.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.choice(3, size=n_requests, p=(0.4, 0.3, 0.3))
    sizes = rng.choice((64, 128, 256), size=n_requests, p=(0.6, 0.25, 0.15))
    sizes[pattern == 0] = 64
    addr = np.empty(n_requests, dtype=np.int64)
    stream = pattern == 0
    addr[stream] = 0x1000_0000 + (np.arange(int(stream.sum())) * 64) % 0x4000
    random = pattern == 1
    addr[random] = 0x2000_0000 + rng.integers(0, 0x1_0000, size=int(random.sum()))
    consecutive = pattern == 2
    steps = sizes[consecutive]
    addr[consecutive] = 0x3000_0000 + (np.cumsum(steps) - steps) % 0x8000
    ops = rng.choice(["W", "R", "ST", "LD", "w", "r"], size=n_requests,
                     p=(0.35, 0.3, 0.1, 0.1, 0.1, 0.05))
    style = rng.integers(0, 8, size=n_requests)
    lines = ["# seeded mixed-pattern trace"]
    for op, a, s, k in zip(ops.tolist(), addr.tolist(), sizes.tolist(), style.tolist()):
        if k == 0:
            lines.append(f"{op} 0x{a:x}")
        elif k == 1:
            lines.append(f"{op}\t0X{a:X}\t0X{s:X}")
        elif k == 2:
            lines.append(f"  {op} 0x{a:X} 0x{s:X}\r")
        elif k == 3:
            lines.append(f"{op} {a:X} {s:x}\n# comment {a}")
        else:
            lines.append(f"{op} 0x{a:X} 0x{s:X}")
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return path


def write_wide_ramulator(path: Path, n_requests: int = 20_000, seed: int = 81) -> Path:
    """A seeded ramulator2 text over 16,384 lines, ingested as one quantum.

    Its 48,641 line writes touch 15,559 distinct lines, so the first two
    mutation rounds each span three full 4,096-request blocks and a partial
    fourth.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.choice((64, 128, 256), size=n_requests, p=(0.6, 0.25, 0.15))
    addr = 0x4000_0000 + rng.integers(0, 1 << 20, size=n_requests)
    is_write = rng.random(n_requests) < 0.9
    path.write_text("".join(
        f"{'W' if w else 'R'} 0x{a:X} 0x{s:X}\n"
        for w, a, s in zip(is_write.tolist(), addr.tolist(), sizes.tolist())
    ))
    return path


def write_tracehm(path: Path, n: int = 400, seed: int = 5) -> Path:
    rng = np.random.default_rng(seed)
    addr = 0x4000_0000 + rng.integers(0, 9, n) * 0x1000 + rng.integers(0, 64, n)
    is_write = rng.integers(0, 2, n)
    path.write_text("".join(
        f"{i}\t0x{a:x}\t{w:x}\n" for i, (a, w) in enumerate(zip(addr.tolist(), is_write.tolist()))
    ))
    return path


def write_ramulator_inst(path: Path, n: int = 400, seed: int = 6) -> Path:
    rng = np.random.default_rng(seed)
    bubbles = rng.integers(0, 20, n)
    load = rng.integers(0, 1 << 20, n) * 8
    store = 0x5000 + rng.integers(0, 48, n) * 64 + rng.integers(0, 64, n)
    has_store = rng.random(n) < 0.6
    path.write_text("".join(
        f"{b} {ld} 0x{st:x}\n" if w else f"{b} {ld}\n"
        for b, ld, st, w in zip(bubbles.tolist(), load.tolist(), store.tolist(),
                                has_store.tolist())
    ))
    return path


#: name -> (input writer or None for the sample, ingest kwargs, digest of the .wtrc).
INGEST_GOLDEN = {
    "sample": (None, {},
               "ab7e6e549c835e2aef97946308625d335ccc66542bef116b4bff402f7f3e890c"),
    "mixed": (write_mixed_ramulator, {"chunk_lines": 512},
              "3ae60972f70505a52d14735692f77814b5f8e0fba7b2c2f25615eafdb80cf5a6"),
    "tracehm": (write_tracehm, {"fmt": "tracehm", "chunk_lines": 64},
                "69a859e02ff39711bcc92c048b56dbd39b2f92f1a8e019f42ca03ca43192b951"),
    "inst": (write_ramulator_inst, {"fmt": "ramulator2-inst", "chunk_lines": 64},
             "714e25646b77e1a065812141b86e84b20d71c33048121ac7d26a24861c829ca1"),
    "wide": (write_wide_ramulator, {},
             "58222c2742776f7a37164c0ba5b1738bcd776e242efb54bf5873b8bf89174a13"),
}

#: profile -> sha256 of the old then new words of a 300-line seed-2018 trace.
GENERATED_GOLDEN = {
    "gcc": "4caea62c72cde081d6ac96b6602d6972808dd9efd5e7359dbd0d2179f6daa10e",
    "lbm": "db7d486c1214c7fbe4d65f6a700f01f4174722820b241bfba6cd4ba454b24ea4",
    "libq": "b0fca9632d59789246d3dd75ad518b8ef3ca3ffd67de2c3844b172fb1b193150",
}


def test_versions_unchanged():
    assert (SYNTHESIS_VERSION, GENERATOR_VERSION) == (2, 1)


@pytest.mark.parametrize("name", sorted(INGEST_GOLDEN))
def test_ingested_wtrc_digest(name, tmp_path):
    writer, kwargs, digest = INGEST_GOLDEN[name]
    source = SAMPLE if writer is None else writer(tmp_path / f"{name}.trace")
    out = stream_ingest_to_wtrc(source, tmp_path / f"{name}.wtrc", **kwargs)
    assert sha256_file(out) == digest


@pytest.mark.parametrize("profile", sorted(GENERATED_GOLDEN))
def test_generated_trace_digest(profile):
    trace = generate_benchmark_trace(profile, length=300, seed=2018)
    blob = trace.old.words.tobytes() + trace.new.words.tobytes()
    assert hashlib.sha256(blob).hexdigest() == GENERATED_GOLDEN[profile]
