"""Perf-regression gate: diff current ``BENCH_*.json`` metrics vs baselines.

The gate policy lives in the registry (each :class:`~.registry.BenchSpec`
declares :class:`~.registry.Gate` entries naming a metric, a good direction
and a tolerance); the reference *values* live in small JSON files under
``benchmarks/baselines/``, one per bench, checked into the repository.
``repro bench compare`` re-reads the current results, extracts every gated
metric and fails (exit 1) when any metric regresses past its tolerance --
the CI step that runs after ``bench run`` is what keeps the perf wins of
the parallel engine, the zero-copy transport and the streaming ingest from
silently rotting.

``--update`` rewrites the baseline files from the current results (run it
locally with the CI environment knobs after an intentional perf change).
Baselines are compared only when their recorded *context* (input sizes and
other shape knobs) matches the current run; a mismatch skips the gate with
a warning, because comparing a 60k-line run to a 400k-line baseline would
be noise, not signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..core.errors import BenchError
from .registry import BenchSpec, Gate

#: Schema marker of the baseline files.
BASELINE_SCHEMA = 1

#: Gate states.  ``regression``, ``missing-result`` and ``missing-metric``
#: always fail the gate; ``missing-baseline`` and ``context-mismatch`` only
#: warn unless strict mode is on.
OK = "ok"
REGRESSION = "regression"
MISSING_BASELINE = "missing-baseline"
MISSING_RESULT = "missing-result"
MISSING_METRIC = "missing-metric"
CONTEXT_MISMATCH = "context-mismatch"


@dataclass
class GateCheck:
    """The outcome of one gate comparison."""

    bench: str
    artifact: str
    metric: str
    direction: str
    tolerance_pct: float
    status: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    detail: str = ""

    @property
    def change_pct(self) -> Optional[float]:
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return 100.0 * (self.current - self.baseline) / self.baseline

    def as_dict(self) -> dict:
        return {
            "bench": self.bench,
            "artifact": self.artifact,
            "metric": self.metric,
            "direction": self.direction,
            "tolerance_pct": self.tolerance_pct,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "change_pct": self.change_pct,
            "detail": self.detail,
        }


@dataclass
class CompareReport:
    """All gate outcomes of one ``bench compare`` invocation."""

    checks: List[GateCheck]
    strict: bool = False

    @property
    def failures(self) -> List[GateCheck]:
        failing = {REGRESSION, MISSING_RESULT, MISSING_METRIC}
        if self.strict:
            failing |= {MISSING_BASELINE, CONTEXT_MISMATCH}
        return [check for check in self.checks if check.status in failing]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "strict": self.strict,
            "checks": [check.as_dict() for check in self.checks],
        }


def baseline_path(baselines_dir: Path, bench_name: str) -> Path:
    return Path(baselines_dir) / f"{bench_name}.json"


def extract_metric(payload: Mapping, dotted: str) -> Optional[float]:
    """Resolve a dotted path into a JSON payload; None when absent/non-numeric."""
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _load_artifact(results_dir: Path, artifact: str) -> Optional[Mapping]:
    path = results_dir / artifact
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise BenchError(f"cannot parse benchmark artifact {path}: {exc}")
    return payload if isinstance(payload, Mapping) else None


def _within_tolerance(gate: Gate, baseline: float, current: float) -> bool:
    allowance = gate.tolerance_pct / 100.0
    if gate.direction == "lower":
        return current <= baseline * (1.0 + allowance)
    return current >= baseline * (1.0 - allowance)


def _gate_context(gates: List[Gate], artifact: str, payload: Mapping) -> Dict[str, object]:
    keys = sorted({key for gate in gates if gate.artifact == artifact for key in gate.context})
    return {key: payload.get(key) for key in keys}


def update_baselines(
    specs: Mapping[str, BenchSpec], results_dir: Path, baselines_dir: Path
) -> List[Path]:
    """Rewrite the baseline files of every gated bench from current results."""
    baselines_dir = Path(baselines_dir)
    baselines_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(specs):
        spec = specs[name]
        if not spec.gates:
            continue
        metrics: Dict[str, Dict[str, float]] = {}
        context: Dict[str, Dict[str, object]] = {}
        for gate in spec.gates:
            payload = _load_artifact(Path(results_dir), gate.artifact)
            if payload is None:
                raise BenchError(
                    f"bench {name!r}: cannot update baseline, artifact "
                    f"{gate.artifact!r} missing from {results_dir}"
                )
            value = extract_metric(payload, gate.metric)
            if value is None:
                raise BenchError(
                    f"bench {name!r}: metric {gate.metric!r} not found in "
                    f"{gate.artifact!r}"
                )
            metrics.setdefault(gate.artifact, {})[gate.metric] = value
            context[gate.artifact] = _gate_context(list(spec.gates), gate.artifact, payload)
        path = baseline_path(baselines_dir, name)
        payload = {
            "schema": BASELINE_SCHEMA,
            "bench": name,
            "context": context,
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def compare(
    specs: Mapping[str, BenchSpec],
    results_dir: Path,
    baselines_dir: Path,
    strict: bool = False,
) -> CompareReport:
    """Check every registered gate against the checked-in baselines."""
    results_dir = Path(results_dir)
    baselines_dir = Path(baselines_dir)
    checks: List[GateCheck] = []
    for name in sorted(specs):
        spec = specs[name]
        if not spec.gates:
            continue
        base_file = baseline_path(baselines_dir, name)
        baseline: Optional[Mapping] = None
        if base_file.is_file():
            try:
                baseline = json.loads(base_file.read_text())
            except ValueError as exc:
                raise BenchError(f"cannot parse baseline {base_file}: {exc}")
        for gate in spec.gates:
            check = GateCheck(
                bench=name,
                artifact=gate.artifact,
                metric=gate.metric,
                direction=gate.direction,
                tolerance_pct=gate.tolerance_pct,
                status=OK,
            )
            checks.append(check)
            if baseline is None:
                check.status = MISSING_BASELINE
                check.detail = f"no baseline file {base_file.name}; run compare --update"
                continue
            payload = _load_artifact(results_dir, gate.artifact)
            if payload is None:
                check.status = MISSING_RESULT
                check.detail = f"artifact {gate.artifact} missing from {results_dir}"
                continue
            check.current = extract_metric(payload, gate.metric)
            if check.current is None:
                check.status = MISSING_METRIC
                check.detail = f"metric {gate.metric!r} absent from {gate.artifact}"
                continue
            recorded = (baseline.get("context") or {}).get(gate.artifact, {})
            current_context = _gate_context(list(spec.gates), gate.artifact, payload)
            if recorded != current_context:
                check.status = CONTEXT_MISMATCH
                check.detail = (
                    f"baseline context {recorded} != current {current_context}; "
                    "re-record with compare --update"
                )
                continue
            recorded_metrics = (baseline.get("metrics") or {}).get(gate.artifact) or {}
            raw = recorded_metrics.get(gate.metric)
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                check.baseline = float(raw)
            if check.baseline is None:
                check.status = MISSING_BASELINE
                check.detail = (
                    f"baseline has no value for {gate.metric!r}; "
                    "run compare --update"
                )
                continue
            if not _within_tolerance(gate, check.baseline, check.current):
                check.status = REGRESSION
                worse = "above" if gate.direction == "lower" else "below"
                check.detail = (
                    f"{check.current:g} is more than {gate.tolerance_pct:g}% "
                    f"{worse} baseline {check.baseline:g}"
                )
    return CompareReport(checks=checks, strict=strict)
