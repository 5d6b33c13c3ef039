"""In-process bench runner: execute every registered benchmark in one process.

``repro bench run`` discovers the registry and calls every bench function
directly in this process, in name order -- no pytest collection, and
crucially no per-module worker-pool start-up: the experiment drivers all fan
out through :func:`repro.evaluation.shared_runner`, so one persistent pool
(and one experiment result cache) serves every figure.  Name order runs
``fig08`` before ``fig09``/``fig10`` and ``fig11`` before ``fig12``/``fig13``,
so the first figure of each family primes the cache for the rest.

Each run writes a run record ``run_record.json`` with per-bench wall clocks
and the trace-generation config and, when no bench failed,
``BENCH_manifest.json``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.errors import BenchError
from ..evaluation.experiments import ExperimentConfig
from ..obs import observation, profile_summary, span, write_session
from . import harness
from .manifest import MANIFEST_NAME, build_manifest, write_manifest
from .registry import DiscoveredBench, discover

#: File name of the run record.  It and the span log below carry wall clocks,
#: so both are named outside the ``BENCH_*`` namespace (in any letter case):
#: the manifest and the trajectory copy never pick them up.
RECORD_NAME = "run_record.json"

#: File name of the span log of a profiled run.
TRACE_LOG_NAME = "run_record.trace.jsonl"


class _TmpPathFactory:
    """Minimal stand-in for pytest's ``tmp_path_factory`` fixture."""

    def __init__(self, root: Path) -> None:
        self._root = root
        self._counter = 0

    def mktemp(self, basename: str, numbered: bool = True) -> Path:
        name = f"{basename}{self._counter}" if numbered else basename
        self._counter += 1
        path = self._root / name
        path.mkdir(parents=True, exist_ok=False)
        return path


@dataclass
class BenchOutcome:
    """What happened to one bench module during a run."""

    name: str
    module: str
    status: str = "passed"
    error: str = ""
    functions: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_clock_s(self) -> float:
        return sum(self.functions.values())


@dataclass
class RunReport:
    """The result of :func:`run_benches`."""

    outcomes: List[BenchOutcome]
    config: Dict[str, int]
    record_path: Optional[Path] = None
    manifest_path: Optional[Path] = None
    profile: Optional[dict] = None
    trace_path: Optional[Path] = None

    @property
    def failures(self) -> List[BenchOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status != "passed"]

    @property
    def wall_clock_s(self) -> float:
        return sum(outcome.wall_clock_s for outcome in self.outcomes)

    def as_dict(self) -> dict:
        payload = {
            "schema": 1,
            "config": dict(self.config),
            "benches": {
                outcome.name: {
                    "module": outcome.module,
                    "status": outcome.status,
                    "functions": {
                        name: round(seconds, 6)
                        for name, seconds in outcome.functions.items()
                    },
                    "wall_clock_s": round(outcome.wall_clock_s, 6),
                }
                for outcome in self.outcomes
            },
            "wall_clock_s": round(self.wall_clock_s, 6),
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload


def _resolve_fixtures(
    function, config: ExperimentConfig, tmp_factory: _TmpPathFactory
) -> Tuple[harness.BenchmarkRecorder, dict]:
    """Build the fixture arguments a bench function asks for by name."""
    recorder = harness.BenchmarkRecorder()
    available = {
        "benchmark": recorder,
        "experiment_config": config,
        "tmp_path_factory": tmp_factory,
    }
    kwargs = {}
    for parameter in inspect.signature(function).parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.name not in available:
            raise BenchError(
                f"bench function {function.__name__!r} requests unsupported "
                f"fixture {parameter.name!r} (have: {', '.join(sorted(available))})"
            )
        kwargs[parameter.name] = available[parameter.name]
    return recorder, kwargs


def _run_bench(
    bench: DiscoveredBench,
    config: ExperimentConfig,
    results: Path,
    tmp_factory: _TmpPathFactory,
) -> BenchOutcome:
    outcome = BenchOutcome(name=bench.name, module=bench.spec.module)
    # Drop stale copies first: in a reused results directory a bench that
    # silently stopped writing a declared artifact must fail the check below
    # rather than pass against (and checksum) last run's file.
    for artifact in bench.spec.all_artifacts:
        try:
            (results / artifact).unlink()
        except FileNotFoundError:
            pass
    for function_name, function in bench.functions:
        try:
            recorder, kwargs = _resolve_fixtures(function, config, tmp_factory)
            with span("bench_function", bench=bench.name, function=function_name):
                function(**kwargs)
            outcome.functions[function_name] = recorder.elapsed_s
        except Exception:
            outcome.status = "failed"
            outcome.error = traceback.format_exc()
            return outcome
    missing = [
        artifact
        for artifact in bench.spec.all_artifacts
        if not (results / artifact).is_file()
    ]
    if missing:
        outcome.status = "failed"
        outcome.error = (
            f"bench {bench.name!r} did not produce declared artifact(s): "
            + ", ".join(missing)
        )
    return outcome


def run_benches(
    bench_dir: Optional[Path] = None,
    results_dir: Optional[Path] = None,
    jobs: Optional[int] = None,
    registry: Optional[Mapping[str, DiscoveredBench]] = None,
    profile: bool = False,
    trace_out: Optional[Path] = None,
) -> RunReport:
    """Run every bench of the registry in this process, in name order.

    A failing bench does not stop the run -- the remaining benches still
    run so one CI job reports every failure -- but the report's ``failures``
    list is non-empty and no manifest is written.  ``jobs`` sets the worker
    count of the shared evaluation pool for every figure.

    ``profile=True`` runs the benches under an observation session: the span
    log lands next to the record as ``run_record.trace.jsonl`` and the
    record gains a ``"profile"`` summary section.  ``trace_out`` writes the
    session to an explicit path as well (Chrome JSON, or the span log for a
    ``.jsonl`` suffix) and implies profiling.
    """
    profile = profile or trace_out is not None
    registry = dict(registry) if registry is not None else discover(bench_dir)

    overrides = {}
    if results_dir is not None:
        overrides[harness.RESULTS_DIR_ENV] = str(results_dir)
    if jobs is not None:
        overrides[harness.JOBS_ENV] = str(jobs)
    saved = {key: os.environ.get(key) for key in overrides}
    tmp_root: Optional[Path] = None
    try:
        os.environ.update(overrides)
        tmp_root = Path(tempfile.mkdtemp(prefix="repro-bench-"))
        config = harness.bench_config()
        results = harness.results_dir()
        results.mkdir(parents=True, exist_ok=True)
        # A reused results directory must not leak the previous run's
        # conclusions: drop the manifest, the record and the span log now so
        # a failed run leaves none of them behind.
        for stale in (MANIFEST_NAME, RECORD_NAME, TRACE_LOG_NAME):
            try:
                (results / stale).unlink()
            except FileNotFoundError:
                pass
        tmp_factory = _TmpPathFactory(tmp_root)
        with observation("bench-run") if profile else contextlib.nullcontext() as session:
            outcomes = [
                _run_bench(registry[name], config, results, tmp_factory)
                for name in sorted(registry)
            ]
        report = RunReport(outcomes=outcomes, config=harness.config_snapshot(config))
        if session is not None:
            metrics = session.metrics.snapshot()
            report.profile = profile_summary(session.spans, metrics)
            report.trace_path = write_session(session, results / TRACE_LOG_NAME, fmt="jsonl")
            if trace_out is not None:
                write_session(session, Path(trace_out))
        record = results / RECORD_NAME
        record.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        report.record_path = record
        if not report.failures:
            report.manifest_path = write_manifest(
                build_manifest(
                    {name: bench.spec for name, bench in registry.items()},
                    results,
                    report.config,
                ),
                results,
            )
        return report
    finally:
        if tmp_root is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        from ..evaluation.parallel import shutdown_shared_runners

        shutdown_shared_runners()
