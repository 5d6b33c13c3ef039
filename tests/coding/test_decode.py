"""Decode tests beyond the roundtrip fixtures.

Every registered scheme must decode what it encoded -- on adversarial line
content, on lines whose compressed size sits just inside or just outside
the DIN and COC+4cosets budgets, and through the stateful
:class:`~repro.pcm.bank.PCMBank` path after many writes to the same rows.
"""

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.coding.coc_cosets import LAYOUT_16, LAYOUT_32
from repro.coding.din import MAX_COMPRESSED_BITS
from repro.coding.registry import available_schemes
from repro.coding.wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE
from repro.compression.fpc import classify_words32
from repro.core.cosets import DEFAULT_MAPPING
from repro.core.line import LineBatch
from repro.pcm.bank import PCMBank

ALL_ONES = 2**64 - 1


def adversarial_lines() -> np.ndarray:
    """All-0, all-1, 0xAA.., 0x55.., single-set-bit and uniform-random lines."""
    lines = [
        np.zeros(8, dtype=np.uint64),
        np.full(8, ALL_ONES, dtype=np.uint64),
        np.full(8, 0xAAAA_AAAA_AAAA_AAAA, dtype=np.uint64),
        np.full(8, 0x5555_5555_5555_5555, dtype=np.uint64),
    ]
    for bit in (0, 1, 63, 64, 255, 256, 447, 448, 479, 480, 511):
        line = np.zeros(8, dtype=np.uint64)
        line[bit // 64] = np.uint64(1 << (bit % 64))
        lines.append(line)
    rng = np.random.default_rng(2018)
    lines.extend(rng.integers(0, 2**64, size=(6, 8), dtype=np.uint64, endpoint=False))
    return np.stack(lines)


def fpc_line(spec: str, seed: int = 0) -> np.ndarray:
    """A line from sixteen 32-bit word kinds, low word first.

    ``u`` uncompressed (32-bit payload), ``h`` sign-extended halfword (16),
    ``b`` sign-extended byte (8), ``n`` sign-extended nibble (4), ``z`` zero.
    """
    assert len(spec) == 16
    rng = np.random.default_rng(seed)
    candidates = rng.integers(2**31, 2**32, size=64, dtype=np.uint64).astype(np.uint32)
    uncompressed = iter(candidates[classify_words32(candidates) == 7])
    kinds = {"h": 0x1234, "b": 100, "n": 5, "z": 0}
    words32 = np.array(
        [next(uncompressed) if kind == "u" else kinds[kind] for kind in spec], dtype=np.uint64
    )
    return words32[0::2] | (words32[1::2] << np.uint64(32))


#: FPC+BDI size -> a line of that size: 357 fits DIN's 360-bit budget, 361 does not.
DIN_EDGES = {357: "uuuuuuuuuhnzzzzz", 361: "uuuuuuuuuhbzzzzz"}
#: COC size -> a line of that size, either side of the 448- and 480-bit budgets.
COC_EDGES = {
    445: "uuuuuuuuuuuubzzz",
    449: "uuuuuuuuuuuubnzz",
    477: "uuuuuuuuuuuuubzz",
    481: "uuuuuuuuuuuuubnz",
}


def assert_decodes(encoder, new: np.ndarray, old: np.ndarray):
    encoded = encoder.encode_batch(LineBatch(new), LineBatch(old))
    assert np.array_equal(encoder.decode_states(encoded.states).words, new)
    return encoded


@pytest.mark.parametrize("scheme", available_schemes())
def test_adversarial_lines_decode(scheme):
    encoder = make_scheme(scheme)
    lines = adversarial_lines()
    assert_decodes(encoder, lines, lines[::-1].copy())
    assert_decodes(encoder, lines, lines)
    assert_decodes(encoder, lines, np.zeros_like(lines))


class TestBudgetEdges:
    def test_din_360_bit_budget(self):
        encoder = make_scheme("din")
        lines = np.stack([fpc_line(spec) for spec in DIN_EDGES.values()])
        sizes = encoder.compressor.sizes_bits(LineBatch(lines))
        assert list(sizes) == list(DIN_EDGES)
        encoded = assert_decodes(encoder, lines, lines[::-1].copy())
        assert list(encoded.encoded) == [True, False]
        assert list(sizes <= MAX_COMPRESSED_BITS) == [True, False]
        flags = encoded.states[:, encoder.flag_cell_index]
        assert list(flags) == [FLAG_COMPRESSED_STATE, FLAG_RAW_STATE]

    def test_coc_448_and_480_bit_budgets(self):
        encoder = make_scheme("coc+4cosets")
        lines = np.stack([fpc_line(spec, seed=1) for spec in COC_EDGES.values()])
        sizes = encoder.compressor.sizes_bits(LineBatch(lines))
        assert list(sizes) == list(COC_EDGES)
        encoded = assert_decodes(encoder, lines, lines[::-1].copy())
        assert list(encoded.encoded) == [True, True, True, False]
        modes = encoded.states[:3, encoder.MODE_CELL]
        assert list(modes) == [
            DEFAULT_MAPPING[LAYOUT_16.mode_symbol],
            DEFAULT_MAPPING[LAYOUT_32.mode_symbol],
            DEFAULT_MAPPING[LAYOUT_32.mode_symbol],
        ]

    @pytest.mark.parametrize("scheme", ["din", "coc+4cosets"])
    def test_edges_decode_against_fresh_and_stored_cells(self, scheme, biased_lines):
        encoder = make_scheme(scheme)
        edges = [fpc_line(spec, seed) for seed in (3, 4)
                 for spec in list(DIN_EDGES.values()) + list(COC_EDGES.values())]
        lines = np.stack(edges)
        assert np.array_equal(encoder.roundtrip(LineBatch(lines)).words, lines)
        assert_decodes(encoder, lines, biased_lines.words[: len(lines)])


@pytest.mark.parametrize("scheme", available_schemes())
@pytest.mark.parametrize("seed", [0, 1])
def test_bank_reads_back_the_last_write(scheme, seed, biased_lines):
    """With sampling off, every row of a bank reads back its last write."""
    rows = 3
    bank = PCMBank(make_scheme(scheme), lines=rows, sample_disturbance=False)
    pool = np.concatenate([adversarial_lines(), biased_lines.words[:16]])
    rng = np.random.default_rng(seed)
    last = {}
    for _ in range(24):
        row = int(rng.integers(rows))
        line = pool[rng.integers(len(pool))]
        bank.write_line(row, LineBatch(line[None]))
        last[row] = line
    for row in range(rows):
        expected = last.get(row, np.zeros(8, dtype=np.uint64))
        assert np.array_equal(bank.read_line(row).words[0], expected)
