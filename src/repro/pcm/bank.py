"""PCM bank: a stateful array of memory lines with per-cell wear tracking.

A bank stores, for every line it holds, the actual cell states written by the
last write request (including any auxiliary cells the active encoding scheme
uses).  This is the stateful counterpart of the trace-driven evaluation path:
instead of reconstructing the old stored states from the old data value, the
bank remembers exactly what was written, so repeated writes to the same
address exercise the true differential-write behaviour, the per-cell wear
counters accumulate, and disturbance / verify-and-restore can be modelled
against real neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..coding.base import WriteEncoder
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from ..core.errors import SimulationError
from ..core.line import LineBatch
from ..core.metrics import WriteMetrics


@dataclass
class BankStatistics:
    """Aggregate statistics of one bank."""

    writes: int = 0
    reads: int = 0
    disturbance_events: int = 0
    restore_iterations: int = 0


class PCMBank:
    """A bank of PCM lines driven by a write-encoding scheme.

    Parameters
    ----------
    encoder:
        The write-encoding scheme used for every line stored in this bank.
    lines:
        Number of line slots the bank exposes (line index = row address).
    disturbance_model:
        Disturbance-rate model used when ``sample_disturbance`` is enabled.
    sample_disturbance:
        When ``True`` the bank Monte-Carlo samples disturbance faults on every
        write and relies on verify-and-restore to repair them.
    seed:
        Seed of the bank's private PRNG (used only for disturbance sampling).
    """

    def __init__(
        self,
        encoder: WriteEncoder,
        lines: int = 1024,
        disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
        sample_disturbance: bool = False,
        seed: int = 0,
    ):
        if lines <= 0:
            raise SimulationError("a bank must have at least one line")
        self.encoder = encoder
        self.num_lines = lines
        self.disturbance_model = disturbance_model
        self.sample_disturbance = sample_disturbance
        self.rng = np.random.default_rng(seed)
        cells = encoder.total_cells
        #: Stored cell states; fresh cells start in the RESET state S1.
        self.states = np.zeros((lines, cells), dtype=np.uint8)
        #: Per-cell write (RESET) counters used for endurance analysis.
        self.wear = np.zeros((lines, cells), dtype=np.int64)
        self.written = np.zeros(lines, dtype=bool)
        self.stats = BankStatistics()
        self.metrics = WriteMetrics()

    # ------------------------------------------------------------------ #
    # Address handling
    # ------------------------------------------------------------------ #
    def _check_row(self, row: int) -> int:
        if not 0 <= row < self.num_lines:
            raise SimulationError(f"row {row} out of range (bank has {self.num_lines} lines)")
        return int(row)

    # ------------------------------------------------------------------ #
    # Write / read path
    # ------------------------------------------------------------------ #
    def write_line(self, row: int, data: LineBatch) -> WriteMetrics:
        """Encode and write one line; returns the metrics of this single write."""
        from ..evaluation.runner import metrics_from_encoded

        row = self._check_row(row)
        if len(data) != 1:
            raise SimulationError("write_line expects a single-line batch")
        encoded = self.encoder.encode_against_stored(data, self.states[row:row + 1])
        changed = encoded.changed
        metrics = metrics_from_encoded(encoded, self.encoder, self.disturbance_model)
        faults = None
        if self.sample_disturbance:
            # One draw gives both the faults and their count.
            faults = self.disturbance_model.sample_errors(
                encoded.old_states, changed, self.rng
            )[0]
            metrics.disturbance_errors = float(np.count_nonzero(faults))

        self.wear[row] += changed[0]
        self.states[row] = encoded.states[0]
        if faults is not None and faults.any():
            self.stats.disturbance_events += int(np.count_nonzero(faults))
            # Disturbance drives idle cells toward the SET state (S2).
            disturbed = self.states[row].copy()
            disturbed[faults] = 1
            self.stats.restore_iterations += self._verify_and_restore(row, encoded.states[0], disturbed)
        self.written[row] = True
        self.stats.writes += 1
        self.metrics.merge(metrics)
        return metrics

    def _verify_and_restore(self, row: int, intended: np.ndarray, observed: np.ndarray) -> int:
        """Iteratively rewrite disturbed cells until the line matches the intent.

        Returns the number of verify-and-restore iterations performed.  The
        paper cites 3-5 iterations as sufficient; the loop is bounded at 5.
        """
        iterations = 0
        current = observed.copy()
        while not np.array_equal(current, intended) and iterations < 5:
            wrong = current != intended
            self.wear[row] += wrong
            current[wrong] = intended[wrong]
            iterations += 1
            if self.sample_disturbance:
                faults = self.disturbance_model.sample_errors(
                    current[None, :], wrong[None, :], self.rng
                )[0]
                current[faults] = 1
        self.states[row] = current
        return iterations

    def read_line(self, row: int) -> LineBatch:
        """Decode and return the data stored at ``row``."""
        row = self._check_row(row)
        if not self.written[row]:
            return LineBatch.zeros(1)
        self.stats.reads += 1
        return self.encoder.decode_states(self.states[row:row + 1])

    # ------------------------------------------------------------------ #
    # Endurance reporting
    # ------------------------------------------------------------------ #
    def max_cell_wear(self) -> int:
        """Highest per-cell write count in the bank (lifetime-limiting cell)."""
        return int(self.wear.max()) if self.wear.size else 0

    def mean_cell_wear(self) -> float:
        """Average per-cell write count across the bank."""
        return float(self.wear.mean()) if self.wear.size else 0.0

    def wear_histogram(self, bins: int = 16) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of per-cell write counts (for wear-levelling studies)."""
        return np.histogram(self.wear.reshape(-1), bins=bins)
