"""Import path of :func:`repro.core.metrics.metrics_to_payload` for older callers."""

from ..core.metrics import metrics_to_payload

__all__ = ["metrics_to_payload"]
