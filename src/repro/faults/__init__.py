"""Deterministic fault injection for chaos-testing the evaluation stack.

See :mod:`repro.faults.plan` for the grammar and determinism model, and
``docs/robustness.md`` for the user-facing guide.
"""

from .plan import (
    CRASH_EXIT_CODE,
    DEFAULT_HANG_S,
    FAULTS_ENV,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    InjectedTransportError,
    InjectedWorkerCrash,
    TransientError,
    active_injector,
    clear,
    execute,
    injected_counts,
    install,
    take,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_HANG_S",
    "FAULTS_ENV",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "InjectedTransportError",
    "InjectedWorkerCrash",
    "TransientError",
    "active_injector",
    "clear",
    "execute",
    "injected_counts",
    "install",
    "take",
]
