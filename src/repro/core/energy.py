"""Write-energy model of a 4-level (MLC) PCM cell.

The model follows Section VII-A and Table II of the paper.  A cell whose value
does not change under differential write costs nothing.  A cell whose value
changes is first RESET (about 36 pJ) and then, depending on the target state,
programmed with iterative SET pulses:

==========  ==================  =====================
State       SET energy (pJ)     total write energy
==========  ==================  =====================
``S1``      0                   36 pJ (RESET only)
``S2``      20                  56 pJ
``S3``      307                 343 pJ
``S4``      547                 583 pJ
==========  ==================  =====================

States are numbered by increasing write energy (S1 cheapest, S4 most
expensive), matching the paper's convention.  The model is a frozen dataclass
so that experiment configurations are hashable and can be swept (Figure 14
varies the S3/S4 SET energies).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .cosets import mapping_byte_table
from .symbols import unpack_state_bytes

#: Number of distinct resistance states of a 4-level cell.
NUM_STATES = 4

#: Default RESET pulse energy in picojoules (Table II).
DEFAULT_RESET_ENERGY_PJ = 36.0

#: Default per-state SET energies in picojoules, indexed S1..S4 (Table II).
DEFAULT_SET_ENERGY_PJ = (0.0, 20.0, 307.0, 547.0)


@dataclass(frozen=True)
class EnergyModel:
    """Per-state write energy of an MLC PCM cell.

    Parameters
    ----------
    reset_energy_pj:
        Energy of the initial RESET pulse applied to every cell whose value
        changes.
    set_energy_pj:
        SET energy required to reach each of the four states, indexed by
        state ``S1..S4``.
    """

    reset_energy_pj: float = DEFAULT_RESET_ENERGY_PJ
    set_energy_pj: Tuple[float, float, float, float] = DEFAULT_SET_ENERGY_PJ

    def __post_init__(self) -> None:
        if len(self.set_energy_pj) != NUM_STATES:
            raise ValueError(f"set_energy_pj must have {NUM_STATES} entries")
        if self.reset_energy_pj < 0 or any(e < 0 for e in self.set_energy_pj):
            raise ValueError("energies must be non-negative")

    @property
    def write_energy_per_state(self) -> np.ndarray:
        """Total energy (RESET + SET) of programming a changed cell to each state."""
        return self.reset_energy_pj + np.asarray(self.set_energy_pj, dtype=np.float64)

    @property
    def is_integral(self) -> bool:
        """Whether every write energy is a whole number of pJ (true for every shipped model).

        Block costs are then exact integers far below 2**53, so any summation
        order gives the same bits and the same cheapest candidate.
        """
        weights = self.write_energy_per_state
        return bool(np.array_equal(weights, np.round(weights)))

    @property
    def byte_cost_table(self) -> np.ndarray:
        """Write energy of every (stored, new) state-byte pair, indexed ``stored << 8 | new``.

        Built on first use and cached.  Exact ``uint16`` for an integral model
        (a byte costs at most four cells' energy); otherwise ``float64``, so
        block costs round once per byte rather than once per cell.
        """
        return _byte_cost_table(self.reset_energy_pj, tuple(self.set_energy_pj), self.is_integral)

    def candidate_cost_table(self, mapping: np.ndarray) -> np.ndarray:
        """Cost of writing data byte ``d`` under coset ``mapping`` over stored state byte ``s``.

        Indexed ``s << 8 | d``: entry ``byte_cost_table[s << 8 |
        mapping_byte_table(mapping)[d]]``, so pricing a candidate is one
        lookup per byte.  Read-only, built on first use and cached at module
        level once per (model, mapping), with the dtype of
        :attr:`byte_cost_table`.  Never keep it on an encoder: encoders are
        pickled into every worker task.
        """
        return _candidate_cost_table(self, np.asarray(mapping, dtype=np.uint8).tobytes())

    def cell_write_energy(self, new_states: np.ndarray, changed: np.ndarray) -> np.ndarray:
        """Per-cell write energy for a differential write.

        Parameters
        ----------
        new_states:
            Integer array of target states (values ``0..3``).
        changed:
            Boolean array of the same shape; ``True`` where the stored state
            differs from the target state (those cells are rewritten).

        Returns
        -------
        numpy.ndarray
            Float array of per-cell energies in pJ; idle cells contribute 0.
        """
        new_states = np.asarray(new_states)
        changed = np.asarray(changed, dtype=bool)
        if new_states.shape != changed.shape:
            raise ValueError("new_states and changed must have the same shape")
        return self.write_energy_per_state[new_states] * changed

    def scaled_intermediate_states(self, s3_set_pj: float, s4_set_pj: float) -> "EnergyModel":
        """Return a copy with modified SET energies for the intermediate states.

        Used by the Figure 14 sensitivity study, which reduces the cost of the
        high-energy states S3 and S4 while keeping S1 and S2 unchanged.
        """
        new_set = (self.set_energy_pj[0], self.set_energy_pj[1], float(s3_set_pj), float(s4_set_pj))
        return EnergyModel(reset_energy_pj=self.reset_energy_pj, set_energy_pj=new_set)


@lru_cache(maxsize=16)
def _byte_cost_table(
    reset_energy_pj: float, set_energy_pj: Tuple[float, ...], integral: bool
) -> np.ndarray:
    weights = reset_energy_pj + np.asarray(set_energy_pj, dtype=np.float64)
    pairs = np.arange(1 << 16)
    stored = unpack_state_bytes((pairs >> 8).astype(np.uint8)).reshape(-1, 4)
    new = unpack_state_bytes((pairs & 0xFF).astype(np.uint8)).reshape(-1, 4)
    table = (weights[new] * (new != stored)).sum(axis=1)
    if integral and table.max() < 1 << 16:
        table = table.astype(np.uint16)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _candidate_cost_table(model: EnergyModel, mapping: bytes) -> np.ndarray:
    states = mapping_byte_table(np.frombuffer(mapping, dtype=np.uint8))
    composed = model.byte_cost_table.reshape(256, 256)[:, states].reshape(-1)
    composed.flags.writeable = False
    return composed


#: The default energy model used across the paper's evaluation.
DEFAULT_ENERGY_MODEL = EnergyModel()

#: A model in which every rewritten cell costs 1: its block "energies" are
#: rewritten-cell counts (the endurance cost).
REWRITE_COUNT_MODEL = EnergyModel(reset_energy_pj=1.0, set_energy_pj=(0.0, 0.0, 0.0, 0.0))

#: The four intermediate-state energy configurations of Figure 14 as
#: ``(S3 SET energy, S4 SET energy)`` pairs in pJ.
FIGURE14_ENERGY_LEVELS: Tuple[Tuple[float, float], ...] = (
    (307.0, 547.0),
    (152.0, 273.0),
    (75.0, 135.0),
    (50.0, 80.0),
)


def figure14_energy_models(base: EnergyModel = DEFAULT_ENERGY_MODEL) -> Tuple[EnergyModel, ...]:
    """Build the four energy models of the Figure 14 sensitivity sweep."""
    return tuple(base.scaled_intermediate_states(s3, s4) for s3, s4 in FIGURE14_ENERGY_LEVELS)
