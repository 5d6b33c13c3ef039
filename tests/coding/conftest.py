"""Fixtures shared by the coding tests."""

import numpy as np
import pytest

from repro.core.line import LineBatch
from repro.workloads.generator import generate_benchmark_trace


@pytest.fixture(scope="module")
def write_requests():
    """``(old, new)`` batches: benchmark, random and adversarial lines."""
    rng = np.random.default_rng(2024)
    trace = generate_benchmark_trace("gcc", length=48, seed=5)
    patterns = np.array(
        [[0] * 8, [2**64 - 1] * 8, [0xAAAA_AAAA_AAAA_AAAA] * 8, [0x5555_5555_5555_5555] * 8],
        dtype=np.uint64,
    )
    new = np.concatenate([trace.new.words, LineBatch.random(16, rng).words, patterns])
    old = np.concatenate([trace.old.words, LineBatch.random(16, rng).words, patterns[::-1]])
    single_bit = new[:24].copy()
    bits = rng.integers(0, 64, 24).astype(np.uint64)
    single_bit[np.arange(24), np.arange(24) % 8] ^= np.uint64(1) << bits
    new = np.concatenate([new, single_bit, new[:12]])
    old = np.concatenate([old, new[:24], new[:12]])  # single-bit deltas, then old == new
    return LineBatch(old), LineBatch(new)
