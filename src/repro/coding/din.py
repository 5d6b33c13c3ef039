"""DIN: 3-to-4-bit expansion coding gated by FPC+BDI compression.

DIN [Jiang et al., DSN 2014] was designed to mitigate write disturbance in
super-dense PCM.  It compresses the memory line with FPC+BDI and, when the
line shrinks enough, expands every 3 compressed bits into a 4-bit codeword
drawn from the cheapest (lowest write-energy / disturbance-prone) symbol
patterns, then protects the line with a 20-bit BCH code that corrects two
write-disturbance errors during write verification.  Lines that do not
compress far enough are written raw -- which, per Figure 4 of the paper,
happens to roughly 70 % of memory lines.

Layout of an encoded line (bit positions from the least significant bit):

``[ 9-bit length | compressed stream | padding ] -> 3-to-4 expansion -> 492 bits``
``[ 492 expanded bits | 20 BCH parity bits ] = 512 bits``

The 9-bit length header makes decoding self-contained; it is charged against
the same 369-bit compression budget the paper quotes, so the FPC+BDI output
itself must fit in 360 bits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..compression.fpc_bdi import FPCBDICompressor
from ..compression.kernels import PackedBits, prepend_field, split_field
from ..core.cosets import DEFAULT_MAPPING, default_states
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import EncodingError
from ..core.line import LineBatch
from ..core.symbols import (
    SYMBOLS_PER_LINE,
    bytes_to_words,
    pack_state_bytes,
    symbol_bytes,
)
from ..ecc.bch import BCHCode
from .base import WriteEncoder, inverse_byte_tables
from .wlc_base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE

#: Bits reserved for the compressed-length header inside the encoded payload.
LENGTH_HEADER_BITS = 9
#: Maximum FPC+BDI output size (bits) for a line to be DIN-encodable.
MAX_COMPRESSED_BITS = 360
#: Number of expanded (3-to-4 coded) bits stored per line.
EXPANDED_BITS = 492
#: Number of BCH parity bits appended per encoded line.
BCH_PARITY_BITS = 20
#: Words holding the 369-bit header + stream before expansion.
PAYLOAD_WORDS = 6
#: Bytes holding the expanded bits (the BCH code's data bytes).
EXPANDED_BYTES = -(-EXPANDED_BITS // 8)


def build_din_mapping(energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> Tuple[np.ndarray, np.ndarray]:
    """Build the 3-bit-to-4-bit DIN expansion table and its inverse.

    The eight 4-bit codewords are the patterns whose two MLC symbols have the
    lowest total write energy under the default mapping, so the expansion
    steers the stored cells away from the expensive (and disturbance-prone)
    states.  Codeword 0 is always ``0000`` so zero padding stays benign.
    """
    weights = energy_model.write_energy_per_state
    default = DEFAULT_MAPPING
    scored = []
    for pattern in range(16):
        low_symbol = pattern & 0b11
        high_symbol = (pattern >> 2) & 0b11
        energy = weights[default[low_symbol]] + weights[default[high_symbol]]
        scored.append((energy, pattern))
    scored.sort()
    forward = np.array([pattern for _, pattern in scored[:8]], dtype=np.uint8)
    inverse = np.full(16, 0, dtype=np.uint8)
    for value, pattern in enumerate(forward):
        inverse[pattern] = value
    return forward, inverse


@lru_cache(maxsize=8)
def _expansion_tables(expand: bytes, contract: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """The 12-to-16-bit expansion and the byte contraction tables of one DIN mapping.

    Entry ``v`` of the first holds the four 4-bit codewords of the four
    3-bit groups of ``v`` (LSB first); entry ``b`` of the second holds the
    6 payload bits of the two codewords in expanded byte ``b``.  Read-only
    and cached at module level per mapping, never kept on an encoder.
    """
    forward = np.frombuffer(expand, dtype=np.uint8)
    inverse = np.frombuffer(contract, dtype=np.uint8)
    groups = (np.arange(1 << 12)[:, None] >> np.arange(0, 12, 3)) & 7
    codewords = forward[groups].astype("<u2") << np.arange(0, 16, 4, dtype="<u2")
    expand12 = np.bitwise_or.reduce(codewords, axis=1).astype("<u2")
    every_byte = np.arange(256)
    contract_bytes = inverse[every_byte & 15] | (inverse[every_byte >> 4] << 3)
    for table in (expand12, contract_bytes):
        table.flags.writeable = False
    return expand12, contract_bytes


class DINEncoder(WriteEncoder):
    """DIN baseline: FPC+BDI gating, 3-to-4-bit expansion and BCH protection."""

    name = "din"

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        super().__init__(energy_model)
        self.compressor = FPCBDICompressor()
        self.bch = BCHCode(m=10, t=2, data_bits=EXPANDED_BITS)
        self.expand_table, self.contract_table = build_din_mapping(energy_model)

    @property
    def aux_cells(self) -> int:
        """One flag cell distinguishes encoded lines from raw lines."""
        return 1

    @property
    def flag_cell_index(self) -> int:
        """Index of the encoded/raw flag cell."""
        return SYMBOLS_PER_LINE

    # ------------------------------------------------------------------ #
    # Batched encode / decode of the DIN payload
    # ------------------------------------------------------------------ #
    def _byte_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        return _expansion_tables(self.expand_table.tobytes(), self.contract_table.tobytes())

    def _encode_lines_bytes(
        self,
        lines: LineBatch,
        patterns: Optional[np.ndarray] = None,
        variant_sizes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The ``(n, 64)`` encoded data bytes of a batch of compressible lines.

        ``patterns``/``variant_sizes`` take the caller's FPC+BDI
        classification.  The length header goes in front of the stream on
        packed words; each 24-bit triple of payload bytes holds two 12-bit
        chunks of four 3-bit groups, and one lookup in a 4,096-entry table
        expands a chunk to its 16 bits.  Zero padding up to the full 369-bit
        budget is benign: codeword 0 of the DIN table is ``0000`` by
        construction.  The BCH parity is one lookup per expanded byte,
        XOR-reduced per line (:meth:`repro.ecc.bch.BCHCode.parity_of_bytes`).
        """
        packed = self.compressor.compress_batch(
            lines, patterns=patterns, variant_sizes=variant_sizes
        )
        sizes = packed.lengths
        if np.any(sizes > MAX_COMPRESSED_BITS):
            raise EncodingError("line exceeds the DIN compression budget")
        n = len(lines)
        framed = prepend_field(packed, sizes, LENGTH_HEADER_BITS)
        payload = np.zeros((n, PAYLOAD_WORDS), dtype="<u8")
        payload[:, : framed.words.shape[1]] = framed.words
        triples = payload.view(np.uint8).reshape(n, -1, 3).astype(np.uint32)
        pairs = triples[..., 0] | (triples[..., 1] << 8) | (triples[..., 2] << 16)
        chunks = np.stack([pairs & 0xFFF, pairs >> 12], axis=-1).reshape(n, -1)
        expand12, _ = self._byte_tables()
        line_bytes = expand12.take(chunks).view(np.uint8)
        parity = self.bch.parity_of_bytes(line_bytes[:, :EXPANDED_BYTES]).astype(np.uint64)
        line_bytes.view("<u8")[:, EXPANDED_BITS // 64] |= parity << np.uint64(EXPANDED_BITS % 64)
        return line_bytes

    def _encode_line_bytes(self, words: np.ndarray) -> np.ndarray:
        """The 64 encoded data bytes of one compressible line."""
        return self._encode_lines_bytes(
            LineBatch(np.asarray(words, dtype=np.uint64).reshape(1, -1))
        )[0]

    def _decode_lines_bytes(self, line_bytes: np.ndarray) -> np.ndarray:
        """Recover the original words of a batch of encoded data bytes."""
        n = line_bytes.shape[0]
        _, contract = self._byte_tables()
        sixes = np.zeros((n, PAYLOAD_WORDS * 64 // 6), dtype=np.uint32)
        # The last expanded byte's high nibble is parity: it contracts into
        # bits 369..371, past every stream, which no decoder reads.
        sixes[:, :EXPANDED_BYTES] = contract.take(line_bytes[:, :EXPANDED_BYTES])
        quads = sixes.reshape(n, -1, 4)
        pairs = quads[..., 0] | (quads[..., 1] << 6) | (quads[..., 2] << 12) | (quads[..., 3] << 18)
        payload = pairs.astype("<u4").view(np.uint8).reshape(n, -1, 4)[..., :3].reshape(n, -1)
        framed = PackedBits(
            np.ascontiguousarray(payload).view("<u8"),
            np.full(n, LENGTH_HEADER_BITS + MAX_COMPRESSED_BITS),
            self.compressor.name,
        )
        sizes, stream = split_field(framed, LENGTH_HEADER_BITS)
        bad = sizes[sizes > MAX_COMPRESSED_BITS]
        if bad.size:
            raise EncodingError(f"invalid DIN length header: {int(bad[0])}")
        return self.compressor.decompress_batch(
            PackedBits(stream.words, sizes, self.compressor.name)
        )

    # ------------------------------------------------------------------ #
    # WriteEncoder interface
    # ------------------------------------------------------------------ #
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        patterns, variant_sizes = self.compressor.classify(lines)
        sizes = self.compressor.sizes_from_classes(patterns, variant_sizes)
        encodable = sizes <= MAX_COMPRESSED_BITS

        data_states = default_states(symbol_bytes(lines.words))
        rows = np.nonzero(encodable)[0]
        if rows.size:
            line_bytes = self._encode_lines_bytes(
                LineBatch(lines.words[rows]), patterns[rows], variant_sizes[:, rows]
            )
            data_states[rows] = default_states(line_bytes)

        flag_states = np.where(encodable, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
        states = np.concatenate([data_states, flag_states[:, None]], axis=1).astype(np.uint8)

        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        # For encoded lines the expansion and parity bits are all metadata; the
        # paper attributes the entire encoded payload to the data component, so
        # only the flag cell is counted as auxiliary here.
        aux_mask[:, self.flag_cell_index] = True
        compressed = encodable.copy()
        return states, aux_mask, compressed, encodable

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        state_bytes = pack_state_bytes(states[:, :SYMBOLS_PER_LINE])
        data_bytes = inverse_byte_tables(DEFAULT_MAPPING).take(state_bytes)
        words = bytes_to_words(data_bytes)
        rows = np.nonzero(states[:, self.flag_cell_index] == FLAG_COMPRESSED_STATE)[0]
        if rows.size:
            words[rows] = self._decode_lines_bytes(data_bytes[rows])
        return LineBatch(words)
