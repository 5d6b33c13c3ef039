"""Write-encoder interface and shared machinery of all encoding schemes.

Every scheme in :mod:`repro.coding` transforms a memory-line *write request*
(the new data value plus the currently stored content) into the array of cell
*states* that will actually be programmed into the PCM line, together with any
auxiliary cells the scheme needs.  The evaluation harness then derives write
energy, updated-cell count and disturbance errors from the difference between
the produced states and the stored states.

The central abstraction is :class:`WriteEncoder` with one required hook,
:meth:`WriteEncoder._encode_against_states`, which encodes a batch of new data
values given the states currently stored in the target cells.  On top of that
hook the base class provides:

* :meth:`WriteEncoder.encode_batch` -- the paper's trace-driven evaluation
  path.  The stored states of the *old* data value are reconstructed by
  encoding the old value against a fresh (all-RESET) background, mirroring the
  trace format used by the paper (each trace record carries the value to be
  written and the value being overwritten).
* :meth:`WriteEncoder.encode_against_stored` -- the stateful path used by the
  PCM device model, where the caller supplies the actual stored states.
* :meth:`WriteEncoder.decode_states` -- recover the original data from stored
  states, used by round-trip tests and by the PCM read path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping, mapping_byte_table
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import EncodingError
from ..core.line import LineBatch
from ..core.symbols import SYMBOLS_PER_LINE


@dataclass
class EncodedBatch:
    """Result of encoding a batch of write requests.

    Attributes
    ----------
    states:
        ``(n, total_cells)`` array of target cell states for the new data.
    old_states:
        ``(n, total_cells)`` array of the states currently stored in those
        cells (what the new states are differentiated against).
    aux_mask:
        ``(n, total_cells)`` boolean array; ``True`` marks cells that hold
        auxiliary (encoding metadata) information rather than data bits.
    compressed:
        ``(n,)`` boolean array; ``True`` when the line was compressed by the
        scheme's compression front-end (always ``False`` for schemes without
        compression).
    encoded:
        ``(n,)`` boolean array; ``True`` when the line was actually encoded
        (as opposed to being written raw because compression failed).
    """

    states: np.ndarray
    old_states: np.ndarray
    aux_mask: np.ndarray
    compressed: np.ndarray
    encoded: np.ndarray

    def __post_init__(self) -> None:
        if self.states.shape != self.old_states.shape:
            raise EncodingError("states and old_states must have the same shape")
        if self.aux_mask.shape != self.states.shape:
            raise EncodingError("aux_mask must match the states shape")

    @property
    def changed(self) -> np.ndarray:
        """Boolean array of cells whose state changes (cells that are rewritten)."""
        return self.states != self.old_states

    @property
    def total_cells(self) -> int:
        """Number of cells written per request (data + auxiliary)."""
        return int(self.states.shape[1])

    def __len__(self) -> int:
        return int(self.states.shape[0])

    def window(self, start: int, stop: int) -> "EncodedBatch":
        """View of the requests in ``[start, stop)`` (no copies).

        Encoding is per-line, so a window of a super-batch encode is exactly
        the encode of those lines alone; the evaluation layer slices each
        coalesced encoder batch back into its original ``chunk_size`` windows
        to keep metric accumulation (and its float rounding) identical to the
        per-chunk path.
        """
        return EncodedBatch(
            states=self.states[start:stop],
            old_states=self.old_states[start:stop],
            aux_mask=self.aux_mask[start:stop],
            compressed=self.compressed[start:stop],
            encoded=self.encoded[start:stop],
        )


class WriteEncoder(ABC):
    """Base class of every write-encoding scheme."""

    #: Scheme identifier used by the registry, reports and benches.
    name: str = "encoder"

    #: Whether the evaluation layer may drive this encoder through the fused
    #: tiled encode+metrics path (``repro.evaluation.runner
    #: .encode_metrics_batch``).  Opting in asserts that encoding is strictly
    #: *per line* -- encoding any subset of a batch yields exactly the rows a
    #: full-batch encode would -- which is what makes tile-wise encoding
    #: bit-identical to a single super-batch encode.  Encoders with cross-line
    #: state must leave this ``False`` to keep the materialising path.
    supports_fused_metrics: bool = False

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        self.energy_model = energy_model

    # ------------------------------------------------------------------ #
    # Scheme geometry
    # ------------------------------------------------------------------ #
    @property
    def aux_cells(self) -> int:
        """Number of auxiliary cells appended beyond the 256 data cells."""
        return 0

    @property
    def total_cells(self) -> int:
        """Total number of cells written per request."""
        return SYMBOLS_PER_LINE + self.aux_cells

    # ------------------------------------------------------------------ #
    # Required hook
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Encode ``lines`` given the states currently stored in the cells.

        Returns ``(states, aux_mask, compressed, encoded)`` where ``states``
        and ``aux_mask`` have shape ``(n, total_cells)`` and the last two have
        shape ``(n,)``.
        """

    @abstractmethod
    def decode_states(self, states: np.ndarray) -> LineBatch:
        """Recover the original data lines from stored cell states."""

    # ------------------------------------------------------------------ #
    # Public encoding entry points
    # ------------------------------------------------------------------ #
    def fresh_states(self, count: int) -> np.ndarray:
        """States of freshly RESET cells (all S1)."""
        return np.zeros((count, self.total_cells), dtype=np.uint8)

    def encode_reference(self, lines: LineBatch) -> np.ndarray:
        """Stored states of ``lines`` assuming they were written onto fresh cells."""
        states, _, _, _ = self._encode_against_states(lines, self.fresh_states(len(lines)))
        return states

    def encode_against_stored(self, lines: LineBatch, stored_states: np.ndarray) -> EncodedBatch:
        """Encode new data against explicitly supplied stored states."""
        stored_states = np.asarray(stored_states, dtype=np.uint8)
        if stored_states.shape != (len(lines), self.total_cells):
            raise EncodingError(
                f"stored_states must have shape ({len(lines)}, {self.total_cells})"
            )
        states, aux_mask, compressed, encoded = self._encode_against_states(lines, stored_states)
        return EncodedBatch(
            states=states,
            old_states=stored_states,
            aux_mask=aux_mask,
            compressed=compressed,
            encoded=encoded,
        )

    def encode_batch(self, new: LineBatch, old: LineBatch) -> EncodedBatch:
        """Encode trace-style write requests given old and new data values."""
        if len(new) != len(old):
            raise EncodingError("old and new batches must have the same length")
        old_states = self.encode_reference(old)
        return self.encode_against_stored(new, old_states)

    def roundtrip(self, lines: LineBatch) -> LineBatch:
        """Encode onto fresh cells and decode again (used by tests)."""
        return self.decode_states(self.encode_reference(lines))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------- #
# Shared helpers used by several schemes
# ---------------------------------------------------------------------- #
def pack_bits_to_states(bits: np.ndarray, mapping: np.ndarray = DEFAULT_MAPPING) -> np.ndarray:
    """Pack auxiliary bits into cell states two bits per cell.

    ``bits`` has shape ``(n, nbits)``; the number of bits is padded with zeros
    to an even count.  Bit ``2i`` becomes the low bit and bit ``2i+1`` the high
    bit of symbol ``i``, which is then mapped to a state with ``mapping``
    (default mapping C1, so the all-zero auxiliary value lands in the cheapest
    state S1).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise EncodingError("bits must be a 2-D array (batch, nbits)")
    if bits.shape[1] % 2:
        bits = np.concatenate([bits, np.zeros((bits.shape[0], 1), dtype=np.uint8)], axis=1)
    symbols = (bits[:, 0::2] | (bits[:, 1::2] << 1)).astype(np.uint8)
    return apply_mapping(mapping, symbols)


def unpack_states_to_bits(
    states: np.ndarray, nbits: int, mapping: np.ndarray = DEFAULT_MAPPING
) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_states`: recover ``nbits`` auxiliary bits."""
    states = np.asarray(states, dtype=np.uint8)
    symbols = invert_mapping(mapping)[states]
    low = (symbols & 1).astype(np.uint8)
    high = ((symbols >> 1) & 1).astype(np.uint8)
    bits = np.empty((states.shape[0], states.shape[1] * 2), dtype=np.uint8)
    bits[:, 0::2] = low
    bits[:, 1::2] = high
    return bits[:, :nbits]


def cost_index(stored_bytes: np.ndarray, data_bytes: np.ndarray) -> np.ndarray:
    """``stored << 8 | data`` per byte: the index shared by every cost table."""
    return (stored_bytes.astype(np.uint16) << 8) | data_bytes


def block_sums(byte_costs: np.ndarray, block_bytes: int) -> np.ndarray:
    """Sum ``(..., width)`` per-byte costs over blocks of ``block_bytes`` (a power of two).

    Integral (``uint16``) costs sum in ``int32``, exactly: a block of at most
    64 bytes costs at most 64 * 65,535 < 2**31.  ``float64`` costs (a
    non-integral model) sum pairwise, always in the same order.
    """
    sums = byte_costs.astype(np.float64 if byte_costs.dtype.kind == "f" else np.int32)
    while block_bytes > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
        block_bytes //= 2
    return sums


def candidate_costs(
    energy_model: EnergyModel,
    candidates: np.ndarray,
    index: np.ndarray,
    block_bytes: int,
    fills: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(k, n, width // block_bytes)`` block costs of every candidate mapping.

    ``index`` is the ``(n, width)`` :func:`cost_index` of the stored state
    bytes and the data symbol bytes.  Candidate ``j`` costs one lookup per
    byte into its composed table
    (:meth:`~repro.core.energy.EnergyModel.candidate_cost_table`), at
    ``index | fills[j]`` when per-candidate ``fills`` are given.
    """
    costs = []
    for j, mapping in enumerate(candidates):
        table = energy_model.candidate_cost_table(mapping)
        byte_costs = table.take(index if fills is None else index | fills[j])
        costs.append(block_sums(byte_costs, block_bytes))
    return np.stack(costs)


def cheapest(costs: np.ndarray, stored: Optional[np.ndarray] = None) -> np.ndarray:
    """The cheapest candidate of every block of ``(k, ...)`` ``costs``, as ``uint8``.

    Candidates are scanned in index order and a strictly cheaper one takes
    over, so the lowest index among the cheapest wins (``argmin``'s rule).
    Each block's ``stored`` candidate, when given, also takes over on an
    exact tie, so it wins whenever it is among the cheapest.
    """
    choice = np.zeros(costs.shape[1:], dtype=np.uint8)
    best = costs[0].copy()
    for index in range(1, len(costs)):
        cost = costs[index]
        takes_over = cost < best
        if stored is not None:
            takes_over |= (cost == best) & (stored == index)
        # Branch-free select; a masked assignment is several times slower.
        choice += (np.uint8(index) - choice) * takes_over.view(np.uint8)
        np.minimum(best, cost, out=best)
    return choice


def candidate_byte_tables(candidates: np.ndarray) -> np.ndarray:
    """The flat ``(k * 256,)`` symbol-byte -> state-byte tables of ``candidates``."""
    return np.concatenate([mapping_byte_table(mapping) for mapping in candidates])


def winner_bytes(
    byte_tables: np.ndarray, choice: np.ndarray, data_bytes: np.ndarray, block_bytes: int
) -> np.ndarray:
    """State bytes of every block's chosen candidate: one gather at ``choice << 8 | data``.

    ``byte_tables`` is the flat ``(k * 256,)`` concatenation of the
    candidates' :func:`~repro.core.cosets.mapping_byte_table`, ``choice``
    the ``(n, width // block_bytes)`` winners and ``data_bytes`` the
    ``(n, width)`` symbol bytes.
    """
    per_byte = np.repeat(choice, block_bytes, axis=-1).astype(np.uint16)
    return byte_tables.take((per_byte << 8) | data_bytes)
