"""Metrics collected for every evaluated write request.

The paper reports three per-request statistics for each scheme:

* **write energy** in pJ, split into the energy of the *data* symbols and the
  energy of the *auxiliary* symbols (encoding metadata);
* **updated cells** per write request (the endurance metric -- fewer RESETs
  means longer cell lifetime);
* **write-disturbance errors** per write request (expected count of idle
  neighbouring cells disturbed by the RESET pulses of the write).

:class:`WriteMetrics` accumulates these over any number of requests and
supports merging, so the evaluation harness can process traces in chunks and
combine per-benchmark results into HMI / LMI / overall averages exactly like
Figures 8-10.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Union


@dataclass
class WriteMetrics:
    """Accumulated statistics over a set of write requests."""

    requests: int = 0
    data_energy_pj: float = 0.0
    aux_energy_pj: float = 0.0
    updated_data_cells: float = 0.0
    updated_aux_cells: float = 0.0
    disturbance_errors: float = 0.0
    compressed_lines: int = 0
    encoded_lines: int = 0

    # ------------------------------------------------------------------ #
    # Totals and averages
    # ------------------------------------------------------------------ #
    @property
    def total_energy_pj(self) -> float:
        """Total write energy (data + auxiliary) accumulated so far."""
        return self.data_energy_pj + self.aux_energy_pj

    @property
    def updated_cells(self) -> float:
        """Total number of updated cells (data + auxiliary)."""
        return self.updated_data_cells + self.updated_aux_cells

    def _per_request(self, value: float) -> float:
        return value / self.requests if self.requests else 0.0

    @property
    def avg_energy_pj(self) -> float:
        """Average total write energy per request (Figure 8 metric)."""
        return self._per_request(self.total_energy_pj)

    @property
    def avg_data_energy_pj(self) -> float:
        """Average data-symbol write energy per request."""
        return self._per_request(self.data_energy_pj)

    @property
    def avg_aux_energy_pj(self) -> float:
        """Average auxiliary-symbol write energy per request."""
        return self._per_request(self.aux_energy_pj)

    @property
    def avg_updated_cells(self) -> float:
        """Average number of updated cells per request (Figure 9 metric)."""
        return self._per_request(self.updated_cells)

    @property
    def avg_updated_data_cells(self) -> float:
        """Average number of updated data cells per request."""
        return self._per_request(self.updated_data_cells)

    @property
    def avg_updated_aux_cells(self) -> float:
        """Average number of updated auxiliary cells per request."""
        return self._per_request(self.updated_aux_cells)

    @property
    def avg_disturbance_errors(self) -> float:
        """Average write-disturbance errors per request (Figure 10 metric)."""
        return self._per_request(self.disturbance_errors)

    @property
    def compressed_fraction(self) -> float:
        """Fraction of requests whose line was successfully compressed."""
        return self.compressed_lines / self.requests if self.requests else 0.0

    @property
    def encoded_fraction(self) -> float:
        """Fraction of requests that were actually encoded (vs written raw)."""
        return self.encoded_lines / self.requests if self.requests else 0.0

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #
    def merge(self, other: "WriteMetrics") -> "WriteMetrics":
        """Accumulate another metrics object into this one (in place)."""
        self.requests += other.requests
        self.data_energy_pj += other.data_energy_pj
        self.aux_energy_pj += other.aux_energy_pj
        self.updated_data_cells += other.updated_data_cells
        self.updated_aux_cells += other.updated_aux_cells
        self.disturbance_errors += other.disturbance_errors
        self.compressed_lines += other.compressed_lines
        self.encoded_lines += other.encoded_lines
        return self

    def __add__(self, other: "WriteMetrics") -> "WriteMetrics":
        result = WriteMetrics()
        result.merge(self)
        result.merge(other)
        return result

    @classmethod
    def combine(cls, parts: Iterable["WriteMetrics"]) -> "WriteMetrics":
        """Combine an iterable of metrics into one."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, float]:
        """Summary of the per-request averages (used by reports and benches)."""
        return {
            "requests": float(self.requests),
            "avg_energy_pj": self.avg_energy_pj,
            "avg_data_energy_pj": self.avg_data_energy_pj,
            "avg_aux_energy_pj": self.avg_aux_energy_pj,
            "avg_updated_cells": self.avg_updated_cells,
            "avg_disturbance_errors": self.avg_disturbance_errors,
            "compressed_fraction": self.compressed_fraction,
            "encoded_fraction": self.encoded_fraction,
        }

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return (
            f"WriteMetrics(requests={self.requests}, "
            f"avg_energy={self.avg_energy_pj:.1f}pJ "
            f"(data={self.avg_data_energy_pj:.1f}, aux={self.avg_aux_energy_pj:.1f}), "
            f"avg_updated_cells={self.avg_updated_cells:.1f}, "
            f"avg_disturbance={self.avg_disturbance_errors:.2f}, "
            f"compressed={self.compressed_fraction:.1%})"
        )


def metrics_to_payload(metrics: WriteMetrics) -> Dict[str, Union[int, float]]:
    """The eight raw accumulator fields of ``metrics``, JSON-serialisable.

    Values are returned as held, not averaged: counts stay ints and floats
    keep every bit (JSON writes a float's round-trip ``repr``), so a digest
    of the payload moves exactly when an accumulator does.
    """
    return {field.name: getattr(metrics, field.name) for field in fields(metrics)}


def relative_improvement(baseline: float, value: float) -> float:
    """Fractional improvement of ``value`` relative to ``baseline``.

    A positive result means ``value`` is lower (better) than ``baseline``.
    Returns 0 for a zero baseline.
    """
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline
