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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Default disturbance error rates per state S1..S4 (Table II).
DEFAULT_DISTURBANCE_RATES = (0.123, 0.0, 0.276, 0.152)


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


#: The default disturbance model used across the paper's evaluation.
DEFAULT_DISTURBANCE_MODEL = DisturbanceModel()
