"""Write-encoder interface and shared machinery of all encoding schemes.

Every scheme in :mod:`repro.coding` transforms a memory-line *write request*
(the new data value plus the currently stored content) into the cell
*states* that will actually be programmed into the PCM line, together with any
auxiliary cells the scheme needs.  The evaluation harness then derives write
energy, updated-cell count and disturbance errors from the difference between
the produced states and the stored states.

Between these stages a line travels as *state bytes* (four 2-bit cells per
byte, cell ``4k+j`` in bits ``2j..2j+1`` of byte ``k``, see
:mod:`repro.core.symbols`) for its 256 data cells, plus the few auxiliary
cells a scheme appends after them.  The central abstraction is
:class:`WriteEncoder` with one required hook,
:meth:`WriteEncoder._encode_against_states`, which encodes a batch of new data
values over the stored data bytes and appended cells.  On top of that hook
the base class provides:

* :meth:`WriteEncoder.encode_batch` -- the paper's trace-driven evaluation
  path.  The stored states of the *old* data value are reconstructed by
  encoding the old value against a fresh (all-RESET) background, mirroring the
  trace format used by the paper (each trace record carries the value to be
  written and the value being overwritten).  Its bytes feed the encode of the
  new value directly.
* :meth:`WriteEncoder.encode_against_stored` -- the stateful path used by the
  PCM device model, where the caller supplies the actual stored cell states.
* :meth:`WriteEncoder.decode_states` -- recover the original data from stored
  cell states, used by round-trip tests and by the PCM read path.

The public entry points keep cell-shaped ``(n, total_cells)`` arguments and
results and convert once at that boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping, mapping_byte_table
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import EncodingError
from ..core.line import LineBatch
from ..core.symbols import BYTES_PER_LINE, SYMBOLS_PER_LINE, pack_state_bytes, unpack_state_bytes
from ..obs import span

#: What :meth:`WriteEncoder._encode_against_states` returns: ``(data, aux,
#: aux_bytes, compressed, encoded)``, the first five fields of :class:`EncodedBatch`.
EncodeResult = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]

#: States of the flag cell a compressing scheme appends, the two cheapest:
#: the line was compressed (and encoded), or it was written raw.
FLAG_COMPRESSED_STATE = 0
FLAG_RAW_STATE = 1

#: Candidate index of each (family, selector bit) of the restricted rule:
#: family 0 draws every block from {C1, C2}, family 1 from {C1, C3}.
FAMILY_CANDIDATES = np.array([[0, 1], [0, 2]], dtype=np.uint8)


def _cell_states(data: np.ndarray, aux: np.ndarray) -> np.ndarray:
    """Read-only ``(n, 256 + a)`` cell states of data state bytes and appended cells."""
    states = np.concatenate([unpack_state_bytes(data), aux], axis=1)
    states.flags.writeable = False
    return states


@dataclass(frozen=True)
class EncodedBatch:
    """Result of encoding a batch of write requests, on state bytes.

    Attributes
    ----------
    data:
        ``(n, 64)`` ``uint8`` state bytes of the 256 data cells written.
    aux:
        ``(n, a)`` ``uint8`` states of the auxiliary cells appended after
        the data cells (``a`` is the encoder's ``aux_cells``).
    aux_bytes:
        ``(n, 64)`` ``uint8`` mask in the state-byte layout: ``0b11`` in a
        cell's field marks a data-region cell that holds auxiliary
        (encoding metadata) information.  ``None`` when every auxiliary
        cell is appended.
    compressed, encoded:
        ``(n,)`` booleans: the line was compressed by the scheme's compression
        front-end, and it was encoded rather than written raw.
    old_data, old_aux:
        The state bytes and appended cells stored before the write (what the
        new ones are differentiated against).

    ``states``, ``old_states``, ``aux_mask`` and ``changed`` are read-only
    ``(n, total_cells)`` cell views of these arrays, built on each access.
    """

    data: np.ndarray
    aux: np.ndarray
    aux_bytes: Optional[np.ndarray]
    compressed: np.ndarray
    encoded: np.ndarray
    old_data: np.ndarray
    old_aux: np.ndarray

    def __post_init__(self) -> None:
        n = np.shape(self.data)[0] if np.ndim(self.data) else -1
        lines = (n, BYTES_PER_LINE)
        cells = (n, np.shape(self.aux)[-1] if np.ndim(self.aux) == 2 else -1)
        for name, shape in dict(
            data=lines, aux=cells, aux_bytes=lines, compressed=(n,), encoded=(n,),
            old_data=lines, old_aux=cells,
        ).items():
            value, dtype = getattr(self, name), np.uint8 if len(shape) == 2 else np.bool_
            if value is None and name == "aux_bytes":
                continue
            if not isinstance(value, np.ndarray) or value.shape != shape or value.dtype != dtype:
                raise EncodingError(f"{name} must be a {np.dtype(dtype).name} array of {shape}")

    @property
    def states(self) -> np.ndarray:
        """``(n, total_cells)`` target cell states of the new data."""
        return _cell_states(self.data, self.aux)

    @property
    def old_states(self) -> np.ndarray:
        """``(n, total_cells)`` cell states stored before the write."""
        return _cell_states(self.old_data, self.old_aux)

    @property
    def aux_mask(self) -> np.ndarray:
        """``(n, total_cells)`` boolean array; ``True`` marks auxiliary cells."""
        mask = np.ones((len(self), self.total_cells), dtype=bool)
        mask[:, :SYMBOLS_PER_LINE] = (
            False if self.aux_bytes is None else unpack_state_bytes(self.aux_bytes) != 0
        )
        mask.flags.writeable = False
        return mask

    @property
    def changed(self) -> np.ndarray:
        """Boolean array of cells whose state changes (cells that are rewritten)."""
        changed = self.states != self.old_states
        changed.flags.writeable = False
        return changed

    @property
    def total_cells(self) -> int:
        """Number of cells written per request (data + auxiliary)."""
        return SYMBOLS_PER_LINE + int(self.aux.shape[1])

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def window(self, start: int, stop: int) -> "EncodedBatch":
        """View of the requests in ``[start, stop)`` (no copies).

        Encoding is per line, so a window of a batch encode is exactly the
        encode of those lines alone.
        """
        fields = vars(self).items()
        return EncodedBatch(**{k: None if v is None else v[start:stop] for k, v in fields})


class WriteEncoder(ABC):
    """Base class of every write-encoding scheme."""

    #: Scheme identifier used by the registry, reports and benches.
    name: str = "encoder"

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
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        """Encode ``lines`` over the cells they overwrite.

        ``stored`` holds the ``(n, 64)`` stored data state bytes and
        ``stored_aux`` the ``(n, aux_cells)`` stored appended cells.  Returns
        ``(data, aux, aux_bytes, compressed, encoded)`` as the fields of
        :class:`EncodedBatch`.
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

    def _reference(self, lines: LineBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Data state bytes and appended cells of ``lines`` written onto fresh cells."""
        n = len(lines)
        fresh = np.zeros((n, BYTES_PER_LINE), np.uint8), np.zeros((n, self.aux_cells), np.uint8)
        return self._encode_against_states(lines, *fresh)[:2]

    def _encode(self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray) -> EncodedBatch:
        result = self._encode_against_states(lines, stored, stored_aux)
        return EncodedBatch(*result, old_data=stored, old_aux=stored_aux)

    def encode_reference(self, lines: LineBatch) -> np.ndarray:
        """Stored states of ``lines`` assuming they were written onto fresh cells."""
        return _cell_states(*self._reference(lines))

    def encode_against_stored(self, lines: LineBatch, stored_states: np.ndarray) -> EncodedBatch:
        """Encode new data against explicitly supplied stored cell states."""
        stored_states = np.asarray(stored_states, dtype=np.uint8)
        if stored_states.shape != (len(lines), self.total_cells):
            raise EncodingError(f"stored_states must have shape ({len(lines)}, {self.total_cells})")
        stored, stored_aux = np.hsplit(stored_states, [SYMBOLS_PER_LINE])
        return self._encode(lines, pack_state_bytes(stored), stored_aux.copy())

    def encode_batch(self, new: LineBatch, old: LineBatch) -> EncodedBatch:
        """Encode trace-style write requests given old and new data values."""
        if len(new) != len(old):
            raise EncodingError("old and new batches must have the same length")
        with span("reference_encode", scheme=self.name, lines=len(old)):
            stored = self._reference(old)
        with span("encode", scheme=self.name, lines=len(new)):
            return self._encode(new, *stored)

    def roundtrip(self, lines: LineBatch) -> LineBatch:
        """Encode onto fresh cells and decode again (used by tests)."""
        return self.decode_states(self.encode_reference(lines))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------- #
# Shared helpers used by several schemes
# ---------------------------------------------------------------------- #
def every_line_encoded(data: np.ndarray, aux: np.ndarray) -> EncodeResult:
    """Hook result of a scheme without compression whose aux cells are all appended."""
    n = data.shape[0]
    return data, aux, None, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)


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
    sums = byte_costs.astype(np.float64 if byte_costs.dtype.kind == "f" else np.int32, copy=False)
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


def restricted(
    costs: np.ndarray,
    stored: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    flips: Optional[np.ndarray] = None,
    threshold: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 over ``(3, ..., blocks)`` C1-C3 costs: one family per scope.

    A scope is the blocks on the last axis (a line or a word).  It takes the
    family, {C1, C2} or {C1, C3}, whose per-block best costs less in total,
    and each block then takes the family's second candidate only when that
    is strictly cheaper than C1.  Exact ties go to family 0 and to C1 or,
    given the stored scopes' ``(family, choice)``, to the stored family and,
    within it, to each block's stored selector, so rewriting identical data
    leaves the aux bits untouched.  With ``threshold``, the Section VIII-D
    endurance objective re-picks the family by the rewritten-cell counts
    ``flips`` when the two family costs lie within ``threshold`` of the
    larger one (count ties keep the energy pick).  Returns ``(family,
    choice)``.
    """
    cost12 = _scope_sums(np.minimum(costs[0], costs[1]))
    cost13 = _scope_sums(np.minimum(costs[0], costs[2]))
    family = (cost13 < cost12).view(np.uint8)
    if stored is not None:  # a scope neither family undercuts keeps its stored family
        stored_family, stored_choice = stored
        family |= ~(cost12 < cost13) & stored_family
    if threshold is not None:
        flips12 = _scope_sums(np.where(costs[1] < costs[0], flips[1], flips[0]))
        flips13 = _scope_sums(np.where(costs[2] < costs[0], flips[2], flips[0]))
        close = np.abs(cost12 - cost13) <= threshold * np.maximum(np.maximum(cost12, cost13), 1e-12)
        by_flips = np.where(
            flips13 < flips12, np.uint8(1), np.where(flips12 < flips13, np.uint8(0), family)
        )
        family = np.where(close, by_flips, family).astype(np.uint8)
    alternative = np.where(family[..., None] == 0, costs[1], costs[2])
    selector = (alternative < costs[0]).view(np.uint8)
    if stored is not None:  # a tie with C1 (selector 0 so far) keeps the stored selector
        keep = (alternative == costs[0]) & (family == stored_family)[..., None]
        selector |= keep & (stored_choice != 0)
    return family, family_choice(family, selector)


def _scope_sums(costs: np.ndarray) -> np.ndarray:
    """Sums over the last axis (a power of two long), by halving adds for integer costs.

    Exact, and far faster than a numpy reduction over a few elements; float
    costs (a non-integral model) keep ``sum``'s order.
    """
    if costs.dtype.kind == "f":
        return costs.sum(axis=-1)
    return block_sums(costs, costs.shape[-1])[..., 0]


def family_choice(family: np.ndarray, selector: np.ndarray) -> np.ndarray:
    """Each block's candidate index, ``selector << family`` (:data:`FAMILY_CANDIDATES`)."""
    return selector << family[..., None]


def candidate_byte_tables(candidates: np.ndarray) -> np.ndarray:
    """The flat ``(k * 256,)`` symbol-byte -> state-byte tables of ``candidates``.

    Read-only and cached at module level per candidate set, never kept on an
    encoder (encoders are pickled into every worker task).
    """
    return _byte_tables(np.asarray(candidates, dtype=np.uint8).tobytes(), False)


def inverse_byte_tables(candidates: np.ndarray) -> np.ndarray:
    """The flat ``(k * 256,)`` state-byte -> symbol-byte tables of ``candidates``.

    The inverse of :func:`candidate_byte_tables`, cached the same way:
    gathered by :func:`winner_bytes` at ``choice << 8 | state_byte``, they
    decode state bytes.
    """
    return _byte_tables(np.asarray(candidates, dtype=np.uint8).tobytes(), True)


@lru_cache(maxsize=32)
def _byte_tables(candidates: bytes, inverse: bool) -> np.ndarray:
    mappings = np.frombuffer(candidates, dtype=np.uint8).reshape(-1, 4)
    tables = np.concatenate(
        [mapping_byte_table(invert_mapping(m) if inverse else m) for m in mappings]
    )
    tables.flags.writeable = False
    return tables


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
