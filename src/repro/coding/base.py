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
from typing import Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping
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


def block_costs(
    candidate_bytes: np.ndarray,
    stored_bytes: np.ndarray,
    energy_model: EnergyModel,
    block_bytes: int,
) -> np.ndarray:
    """Differential-write energy of every block under every candidate.

    ``candidate_bytes`` is ``(k, n, width)`` state bytes each candidate would
    program (see :func:`repro.core.symbols.pack_state_bytes`) and
    ``stored_bytes`` the ``(n, width)`` bytes currently stored.  Each byte
    costs one lookup into ``energy_model.byte_cost_table``; blocks of
    ``block_bytes`` (a power of two) sum pairwise.  Returns ``(k, n, width //
    block_bytes)`` float64 energies; for an integral model they are exact
    integers, equal bit for bit under any summation order.
    """
    index_hi = stored_bytes.astype(np.uint16) << 8
    table = energy_model.byte_cost_table
    costs = []
    for candidate in candidate_bytes:
        sums = table.take(index_hi | candidate).astype(np.float64)
        width = block_bytes
        while width > 1:
            sums = sums[..., 0::2] + sums[..., 1::2]
            width //= 2
        costs.append(sums)
    return np.stack(costs)


def select_block_bytes(
    candidate_bytes: np.ndarray, choice: np.ndarray, block_bytes: int
) -> np.ndarray:
    """State bytes of the winning candidate of every block.

    ``candidate_bytes`` is ``(k, n, width)`` and ``choice`` is the
    ``(n, width // block_bytes)`` winning candidate per block; returns the
    ``(n, width)`` winner's bytes.
    """
    n, width = candidate_bytes.shape[1:]
    if choice.shape != (n, width // block_bytes):
        raise EncodingError("choice has the wrong shape for this block structure")
    per_byte = np.repeat(choice, block_bytes, axis=1).astype(np.intp)
    return np.take_along_axis(candidate_bytes, per_byte[None], axis=0)[0]
