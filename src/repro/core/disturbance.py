"""Write-disturbance model for MLC PCM.

Write disturbance occurs when the high heat of a RESET pulse (applied to every
cell that is rewritten under differential write) reduces the resistance of
*idle* neighbouring cells.  The disturbance is unidirectional: it can only
lower a cell's resistance, so the cell in the minimum-resistance state (S2) is
immune.  Following Table II of the paper (20 nm technology node), the
disturbance error rates (DER) of an idle cell adjacent to a written cell are:

==========  =========
State       DER
==========  =========
``S1``      12.3 %
``S2``      0.0 %
``S3``      27.6 %
``S4``      15.2 %
==========  =========

Cells of a memory line are modelled as a linear array (the physical word-line
layout); the neighbours of cell ``i`` are cells ``i-1`` and ``i+1``.  Two
counting modes are supported:

* *expected-value* (default): each idle cell adjacent to at least one updated
  cell contributes ``DER[state]`` expected errors.  This is deterministic and
  is what the benchmark harness uses.
* *Monte-Carlo*: errors are sampled with a seeded generator, for studies of
  the verify-and-restore loop.

:meth:`DisturbanceModel.expected_errors` and
:meth:`DisturbanceModel.sample_errors` take per-cell states.  The metric
reduction works on state bytes instead (:func:`vulnerable_cells`,
:meth:`DisturbanceModel.expected_errors_of_bytes`,
:meth:`DisturbanceModel.sampled_errors_of_bytes`) and gives the same numbers
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from .symbols import SYMBOLS_PER_LINE, cell_nibbles, unpack_state_bytes

#: Default disturbance error rates per state S1..S4 (Table II).
DEFAULT_DISTURBANCE_RATES = (0.123, 0.0, 0.276, 0.152)

# Lines per block of per-cell values built from state bytes (0.5 MB of float64).
_ERROR_BLOCK_LINES = 256

_TOP_CELL = np.uint64(62)  # shift of the last cell of a word of state bytes


def neighbor_of_updated(changed: np.ndarray) -> np.ndarray:
    """Boolean mask of cells that are adjacent to at least one updated cell.

    Parameters
    ----------
    changed:
        Boolean array of shape ``(..., ncells)``; ``True`` for cells rewritten
        by the current write request.

    Returns
    -------
    numpy.ndarray
        Boolean array of the same shape; ``True`` where the left or right
        neighbour (within the line) is updated.
    """
    changed = np.asarray(changed, dtype=bool)
    neighbor = np.zeros_like(changed)
    neighbor[..., :-1] |= changed[..., 1:]
    neighbor[..., 1:] |= changed[..., :-1]
    return neighbor


def vulnerable_cells(
    changed: np.ndarray, aux_changed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Idle cells next to a rewritten one, for lines of 256 data cells plus appended cells.

    ``changed`` holds the ``(n, 8)`` cell marks of the rewritten data cells
    (:func:`repro.core.symbols.changed_cells`) and ``aux_changed`` the
    ``(n, a)`` boolean mask of the rewritten appended cells (cell ``256 + i``).
    Returns the vulnerable data cells as cell marks and the vulnerable
    appended cells, as :meth:`DisturbanceModel.vulnerable_mask` would mark
    them on the ``(n, 256 + a)`` cell array: shifts by one cell within each
    word, carries across the seven word boundaries, and the data/aux
    boundary between cells 255 and 256.
    """
    two = np.uint64(2)
    near = (changed << two) | (changed >> two)
    near[:, 1:] |= changed[:, :-1] >> _TOP_CELL
    near[:, :-1] |= (changed[:, 1:] & np.uint64(1)) << _TOP_CELL
    if not aux_changed.shape[1]:
        return near & ~changed, aux_changed
    near[:, -1] |= aux_changed[:, 0].astype(np.uint64) << _TOP_CELL
    edge = (changed[:, -1:] >> _TOP_CELL).astype(bool)
    aux_near = neighbor_of_updated(np.concatenate([edge, aux_changed], axis=1))[:, 1:]
    return near & ~changed, aux_near & ~aux_changed


@lru_cache(maxsize=16)
def _byte_rate_table(rates: Tuple[float, ...]) -> np.ndarray:
    """``(4096, 4)`` expected errors of the four cells of ``stored << 4 | vulnerable``.

    Every value comes from the 8-entry table of
    :meth:`DisturbanceModel.expected_errors_per_cell`, so it is the same
    float, ``+0.0`` for an idle cell no rewrite touches.
    """
    index = np.arange(1 << 12)
    cells = unpack_state_bytes((index >> 4).astype(np.uint8)).reshape(-1, 4)
    vulnerable = (index[:, None] >> np.arange(4)) & 1
    table = np.concatenate([np.zeros(4), np.asarray(rates, dtype=np.float64)])
    per_cell = table[cells | (vulnerable << 2)]
    per_cell.flags.writeable = False
    return per_cell


def _byte_index(stored: np.ndarray, vulnerable: np.ndarray) -> np.ndarray:
    """``stored << 4 | vulnerable nibble`` per state byte."""
    return (stored.astype(np.uint16) << 4) | cell_nibbles(vulnerable)


@dataclass(frozen=True)
class DisturbanceModel:
    """Per-state write-disturbance error rates of idle MLC PCM cells."""

    rates: Tuple[float, float, float, float] = DEFAULT_DISTURBANCE_RATES

    def __post_init__(self) -> None:
        if len(self.rates) != 4:
            raise ValueError("rates must have 4 entries (S1..S4)")
        if any(r < 0 or r > 1 for r in self.rates):
            raise ValueError("rates must be probabilities in [0, 1]")

    @property
    def rate_per_state(self) -> np.ndarray:
        """Disturbance rates as a numpy lookup table indexed by state."""
        return np.asarray(self.rates, dtype=np.float64)

    def vulnerable_mask(self, stored_states: np.ndarray, changed: np.ndarray) -> np.ndarray:
        """Idle cells that may be disturbed by the current write.

        A cell is vulnerable when it is idle (not rewritten) and at least one
        of its neighbours is rewritten (and therefore RESET).
        """
        stored_states = np.asarray(stored_states)
        changed = np.asarray(changed, dtype=bool)
        if stored_states.shape != changed.shape:
            raise ValueError("stored_states and changed must have the same shape")
        return (~changed) & neighbor_of_updated(changed)

    def expected_errors(self, stored_states: np.ndarray, changed: np.ndarray) -> np.ndarray:
        """Expected number of disturbance errors per line.

        Parameters
        ----------
        stored_states:
            Integer array ``(..., ncells)`` of the states held by idle cells
            (for rewritten cells the value is ignored).
        changed:
            Boolean array of rewritten cells.

        Returns
        -------
        numpy.ndarray
            Float array of shape ``(...,)`` with the expected error count of
            each line.
        """
        return self.expected_errors_per_cell(stored_states, changed).sum(axis=-1)

    def expected_errors_per_cell(
        self, stored_states: np.ndarray, changed: np.ndarray
    ) -> np.ndarray:
        """Per-cell expected disturbance errors (the summand of
        :meth:`expected_errors`).

        One gather from an 8-entry table, ``[0, 0, 0, 0, DER(S1..S4)]``,
        indexed by ``stored | vulnerable << 2``.  Every value equals
        ``rate[stored] * vulnerable`` bit for bit (a rate or ``+0.0``), so the
        order-sensitive float sums over this array keep their bits.
        """
        stored_states = np.asarray(stored_states)
        vulnerable = self.vulnerable_mask(stored_states, changed)
        table = np.concatenate([np.zeros(4), self.rate_per_state])
        return table[stored_states | (vulnerable.view(np.uint8) << 2)]

    def sample_errors(
        self,
        stored_states: np.ndarray,
        changed: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Monte-Carlo sample of disturbed cells.

        Returns a boolean array marking the idle cells that flipped due to
        disturbance in this write: one uniform draw per cell, below the rate
        of the cell's stored state, on vulnerable cells.  The draws are
        compared with each nonzero rate in turn, which is cheaper than
        gathering a float rate per cell and gives the same mask.
        """
        stored_states = np.asarray(stored_states)
        draws = rng.random(size=stored_states.shape)
        faults = np.zeros(stored_states.shape, dtype=bool)
        for state, rate in enumerate(self.rates):
            if rate > 0:
                faults |= (draws < rate) & (stored_states == state)
        faults &= self.vulnerable_mask(stored_states, changed)
        return faults

    def expected_errors_of_bytes(
        self,
        stored: np.ndarray,
        stored_aux: np.ndarray,
        vulnerable: np.ndarray,
        aux_vulnerable: np.ndarray,
    ) -> np.ndarray:
        """:meth:`expected_errors_per_cell` from ``(n, 64)`` stored state bytes.

        ``stored_aux`` holds the appended cells and ``vulnerable`` /
        ``aux_vulnerable`` come from :func:`vulnerable_cells`.  The
        ``(n, 256 + a)`` float64 array is the same bit for bit.
        """
        n, appended = stored_aux.shape
        per_cell = np.empty((n, SYMBOLS_PER_LINE + appended))
        for rows, data, aux in self._block_errors(stored, stored_aux, vulnerable, aux_vulnerable):
            per_cell[rows, :SYMBOLS_PER_LINE] = data
            per_cell[rows, SYMBOLS_PER_LINE:] = aux
        return per_cell

    def sampled_errors_of_bytes(
        self,
        stored: np.ndarray,
        stored_aux: np.ndarray,
        vulnerable: np.ndarray,
        aux_vulnerable: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """``count_nonzero`` of :meth:`sample_errors`, from state bytes.

        The same one uniform draw per cell of the ``(n, 256 + a)`` lines, in
        order, taken one block of lines at a time.  A cell fails when its draw
        is below its :meth:`expected_errors_of_bytes` value: its state's rate
        when it is vulnerable, else ``+0.0``, which no draw is below.
        """
        faults = 0
        for rows, data, aux in self._block_errors(stored, stored_aux, vulnerable, aux_vulnerable):
            draws = rng.random(size=(len(data), SYMBOLS_PER_LINE + aux.shape[1]))
            faults += np.count_nonzero(draws[:, :SYMBOLS_PER_LINE] < data)
            faults += np.count_nonzero(draws[:, SYMBOLS_PER_LINE:] < aux)
        return faults

    def _block_errors(
        self,
        stored: np.ndarray,
        stored_aux: np.ndarray,
        vulnerable: np.ndarray,
        aux_vulnerable: np.ndarray,
    ) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
        """Per-cell expected errors, 256 lines at a time.

        Yields each block's rows with the ``(k, 256)`` values of its data
        cells, one gather of four per byte, and the ``(k, a)`` values of its
        appended cells, from the 8-entry table of
        :meth:`expected_errors_per_cell`.  Blocks keep the one ``(n, cells)``
        float64 array of the expected mode its only large temporary.
        """
        table = _byte_rate_table(tuple(self.rates))
        cell_table = np.concatenate([np.zeros(4), self.rate_per_state])
        for start in range(0, len(stored), _ERROR_BLOCK_LINES):
            rows = slice(start, start + _ERROR_BLOCK_LINES)
            data = table.take(_byte_index(stored[rows], vulnerable[rows]), axis=0)
            aux = cell_table[stored_aux[rows] | (aux_vulnerable[rows].view(np.uint8) << 2)]
            yield rows, data.reshape(-1, SYMBOLS_PER_LINE), aux


#: The default disturbance model used across the paper's evaluation.
DEFAULT_DISTURBANCE_MODEL = DisturbanceModel()
