"""Differential-write baseline: no encoding, just write the changed cells.

This is the paper's ``Baseline`` scheme: every data symbol is stored under the
default symbol-to-state mapping (coset C1) and differential write skips the
cells whose state does not change.  All other schemes are built on top of the
same differential-write substrate.
"""

from __future__ import annotations

import numpy as np

from ..core.cosets import default_states, default_symbols
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.line import LineBatch
from ..core.symbols import pack_state_bytes
from ..obs import span
from .base import EncodeResult, WriteEncoder


class BaselineEncoder(WriteEncoder):
    """Plain differential write with the default symbol-to-state mapping."""

    name = "baseline"

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        super().__init__(energy_model)

    def _encode_against_states(
        self, lines: LineBatch, stored: np.ndarray, stored_aux: np.ndarray
    ) -> EncodeResult:
        n = len(lines)
        data = default_states(lines.words).view(np.uint8)
        no = np.zeros(n, dtype=bool)
        return data, np.zeros((n, 0), dtype=np.uint8), None, no, no.copy()

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        with span("decode", scheme=self.name, lines=len(states)):
            return LineBatch(default_symbols(pack_state_bytes(states).view("<u8")))
