"""Deterministic fault injection: the plan grammar and the injector.

A *fault plan* is a comma-separated list of fault specifications::

    worker-crash@task:7,worker-hang@task:12:30s,attach-fail@attach:2

Each specification is ``<kind>@<site>:<n>[:<duration>]``:

``kind``
    What goes wrong.  ``worker-crash`` (the worker process dies hard, as an
    OOM kill would), ``worker-hang`` (the worker stalls for ``duration``),
    ``attach-fail`` (the zero-copy trace attachment raises a transient
    error).
``site``
    Where it goes wrong.  Each site is one instrumented code location that
    asks the injector "does this invocation fault?": ``task`` (parallel-engine
    task dispatch) and ``attach`` (trace-transport attachment, counted per
    dispatched task that carries a transport descriptor).
``n``
    The 1-based invocation ordinal of the site at which the fault fires --
    ``worker-crash@task:3`` kills the worker executing the third dispatched
    task.  Each specification fires exactly once.
``duration``
    ``worker-hang`` only: how long the worker stalls (``30s``, ``250ms`` or
    a plain float of seconds; default 30s).

Determinism is the whole point: the schedule is a pure function of the plan
and the per-site invocation counters, and the sites are consulted from the
*dispatching* process in its deterministic submission order -- never from
pool workers, whose scheduling is nondeterministic.  Fired faults travel to
workers as explicit :class:`FaultAction` directives attached to the
dispatched task, so a chaos run is exactly reproducible: the same plan
against the same workload faults the same task, every time.  Recovered
(resubmitted) work carries no directives, which is what makes each
specification one-shot even when the faulted task is retried.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..obs import count

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

#: Environment variable holding a fault plan (same grammar as
#: ``--inject-faults``); parsed lazily when no plan was installed explicitly.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status an injected ``worker-crash`` kills the worker process with.
CRASH_EXIT_CODE = 87

#: kind -> sites it may be planted at.
KIND_SITES: Dict[str, Tuple[str, ...]] = {
    "worker-crash": ("task",),
    "worker-hang": ("task",),
    "attach-fail": ("attach",),
}

#: Default stall of a ``worker-hang`` with no explicit duration.
DEFAULT_HANG_S = 30.0


class FaultPlanError(ReproError):
    """A fault-plan specification cannot be parsed."""


class TransientError(ReproError):
    """A retryable task failure: the work is intact, only this attempt died.

    The parallel engine resubmits tasks failing with a :class:`TransientError`
    (bounded per-task attempts) instead of aborting the run.
    """


class InjectedFault(TransientError):
    """Base class of every deliberately injected failure."""


class InjectedWorkerCrash(InjectedFault):
    """An injected worker death, surfaced as an exception where the worker
    shares the dispatcher's process (serial path, thread backend)."""


class InjectedTransportError(InjectedFault):
    """An injected trace-transport attachment failure."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind@site:n[:duration]`` entry of a plan."""

    kind: str
    site: str
    nth: int
    duration_s: float = 0.0

    def render(self) -> str:
        text = f"{self.kind}@{self.site}:{self.nth}"
        if self.kind == "worker-hang":
            text += f":{self.duration_s:g}s"
        return text


@dataclass(frozen=True)
class FaultAction:
    """A fired fault, shipped to the injection point as an explicit directive.

    ``parent_pid`` distinguishes "the worker is a separate process" (a crash
    may really kill it) from inline/thread execution (a crash degrades to an
    :class:`InjectedWorkerCrash` exception the engine retries).
    """

    kind: str
    duration_s: float = 0.0
    parent_pid: int = 0


def _parse_duration(text: str, spec: str) -> float:
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("ms"):
        raw, scale = raw[:-2], 1e-3
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise FaultPlanError(
            f"bad duration {text!r} in fault spec {spec!r} "
            "(use e.g. '30s', '250ms' or a plain float of seconds)"
        )
    if not value >= 0:
        raise FaultPlanError(f"duration must be non-negative in fault spec {spec!r}")
    return value * scale


def _parse_spec(text: str) -> FaultSpec:
    spec = text.strip()
    kind, sep, rest = spec.partition("@")
    kind = kind.strip()
    if not sep or not kind:
        raise FaultPlanError(
            f"bad fault spec {spec!r}: expected '<kind>@<site>:<n>[:<duration>]'"
        )
    if kind not in KIND_SITES:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in {spec!r} "
            f"(known: {', '.join(sorted(KIND_SITES))})"
        )
    parts = [part.strip() for part in rest.split(":")]
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise FaultPlanError(
            f"bad fault spec {spec!r}: expected '<kind>@<site>:<n>[:<duration>]'"
        )
    site = parts[0]
    if site not in KIND_SITES[kind]:
        raise FaultPlanError(
            f"fault kind {kind!r} cannot be planted at site {site!r} "
            f"(valid sites: {', '.join(KIND_SITES[kind])})"
        )
    try:
        nth = int(parts[1])
    except ValueError:
        raise FaultPlanError(f"bad ordinal {parts[1]!r} in fault spec {spec!r}")
    if nth < 1:
        raise FaultPlanError(f"fault ordinal must be >= 1 in {spec!r}")
    duration = 0.0
    if len(parts) >= 3:
        if kind != "worker-hang":
            raise FaultPlanError(
                f"only worker-hang takes a duration (fault spec {spec!r})"
            )
        duration = _parse_duration(":".join(parts[2:]), spec)
    elif kind == "worker-hang":
        duration = DEFAULT_HANG_S
    return FaultSpec(kind=kind, site=site, nth=nth, duration_s=duration)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, parsed fault schedule."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``--inject-faults`` / :data:`FAULTS_ENV` grammar."""
        specs = tuple(
            _parse_spec(part) for part in text.split(",") if part.strip()
        )
        return cls(specs=specs)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        text = os.environ.get(FAULTS_ENV)
        if not text or not text.strip():
            return None
        return cls.parse(text)

    def render(self) -> str:
        return ",".join(spec.render() for spec in self.specs)


class FaultInjector:
    """Process-local fault scheduler: per-site counters over one plan.

    ``take(site)`` advances the site's invocation counter and returns the
    :class:`FaultAction` of a spec whose ordinal just came up (consuming it),
    or ``None``.  Counting is lock-protected -- concurrent runner calls in
    one process may share one injector -- but the determinism guarantee
    only covers single-driver runs, where sites are consulted in the
    dispatcher's serial order.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._site_counts: Dict[str, int] = {}
        self._pending: List[FaultSpec] = list(plan.specs)
        self._injected: Dict[str, int] = {}

    def take(self, site: str) -> Optional[FaultAction]:
        """Advance ``site``'s counter; the fired directive, or ``None``."""
        with self._lock:
            ordinal = self._site_counts.get(site, 0) + 1
            self._site_counts[site] = ordinal
            for index, spec in enumerate(self._pending):
                if spec.site == site and spec.nth == ordinal:
                    del self._pending[index]
                    self._injected[site] = self._injected.get(site, 0) + 1
                    count("faults_injected", site=site)
                    return FaultAction(
                        kind=spec.kind,
                        duration_s=spec.duration_s,
                        parent_pid=os.getpid(),
                    )
        return None

    def injected_counts(self) -> Dict[str, int]:
        """Faults fired so far, keyed by site."""
        with self._lock:
            return dict(self._injected)

    def pending(self) -> Tuple[FaultSpec, ...]:
        with self._lock:
            return tuple(self._pending)


# ---------------------------------------------------------------------- #
# Process-wide installation
# ---------------------------------------------------------------------- #
_INSTALLED: Optional[FaultInjector] = None
_ENV_CHECKED = False


def install(plan: "FaultPlan | str | None") -> Optional[FaultInjector]:
    """Install ``plan`` as the process's active injector (``None`` clears).

    Accepts a parsed :class:`FaultPlan` or the raw spec string; returns the
    injector (or ``None``).  Installing replaces any previous plan and resets
    all site counters.
    """
    global _INSTALLED, _ENV_CHECKED
    if plan is None:
        _INSTALLED = None
        _ENV_CHECKED = True  # an explicit clear also wins over the env var
        return None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _INSTALLED = FaultInjector(plan)
    _ENV_CHECKED = True
    return _INSTALLED


def clear() -> None:
    """Remove the active injector and re-arm :data:`FAULTS_ENV` discovery."""
    global _INSTALLED, _ENV_CHECKED
    _INSTALLED = None
    _ENV_CHECKED = False


def active_injector() -> Optional[FaultInjector]:
    """The installed injector; lazily adopts :data:`FAULTS_ENV` if none is.

    The environment variable is consulted once per install/clear cycle, so a
    long-lived process does not re-parse it on every dispatch.
    """
    global _INSTALLED, _ENV_CHECKED
    if _INSTALLED is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        plan = FaultPlan.from_env()
        if plan is not None and plan.specs:
            _INSTALLED = FaultInjector(plan)
    return _INSTALLED


def take(site: str) -> Optional[FaultAction]:
    """Consult the active injector for ``site`` (``None`` when chaos is off)."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.take(site)


def injected_counts() -> Dict[str, int]:
    """Fired-fault counts of the active injector (empty when chaos is off)."""
    injector = active_injector()
    if injector is None:
        return {}
    return injector.injected_counts()


def execute(action: FaultAction) -> None:
    """Carry out a directive at its injection point.

    * ``worker-crash`` in a real worker process: the process dies hard
      (``os._exit``), exactly like an OOM kill -- the parent sees a broken
      pool.  Inline or on the thread backend it raises
      :class:`InjectedWorkerCrash` instead, which the engine retries.
    * ``worker-hang``: stalls for the spec's duration; the parent's watchdog
      (``task_timeout``) is what turns the stall into a recovery.
    * ``attach-fail``: raises :class:`InjectedTransportError` (retried).
    """
    if action.kind == "worker-crash":
        if action.parent_pid and os.getpid() != action.parent_pid:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash("injected worker crash")
    if action.kind == "worker-hang":
        time.sleep(action.duration_s)
        return
    if action.kind == "attach-fail":
        raise InjectedTransportError("injected trace-attach failure")
    raise FaultPlanError(f"directive kind {action.kind!r} has no executor")
