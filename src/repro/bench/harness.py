"""Shared helpers of the figure benchmarks: config, artifact writers, timing.

These used to live in ``benchmarks/conftest.py``; they moved here so the two
ways of executing a bench module share one implementation:

* under **pytest** (``pytest benchmarks -o python_files='bench_*.py' ...``)
  the ``benchmark`` argument is the pytest-benchmark fixture;
* under the **in-process runner** (``repro bench run``) it is the
  :class:`BenchmarkRecorder` stub below, which satisfies the same
  ``pedantic`` contract while reusing one process -- and therefore one
  :func:`repro.evaluation.shared_runner` worker pool and one experiment
  cache -- across every figure.

The results directory honours ``REPRO_BENCH_RESULTS_DIR`` so ``bench run
--results`` and tests can redirect artifacts without touching the module
state.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..evaluation.experiments import ExperimentConfig
from .registry import default_bench_dir

#: Environment override of the artifact directory (default benchmarks/results).
RESULTS_DIR_ENV = "REPRO_BENCH_RESULTS_DIR"

#: Environment knobs shared by every figure benchmark.
TRACE_LEN_ENV = "REPRO_BENCH_TRACE_LEN"
RANDOM_LINES_ENV = "REPRO_BENCH_RANDOM_LINES"
SEED_ENV = "REPRO_BENCH_SEED"
JOBS_ENV = "REPRO_BENCH_JOBS"


def results_dir() -> Path:
    """Directory the benchmarks write artifacts to (created lazily)."""
    override = os.environ.get(RESULTS_DIR_ENV)
    if override:
        return Path(override)
    return default_bench_dir() / "results"


def bench_config() -> ExperimentConfig:
    """Experiment configuration shared by all figure benchmarks."""
    return ExperimentConfig(
        trace_length=int(os.environ.get(TRACE_LEN_ENV, "1200")),
        random_lines=int(os.environ.get(RANDOM_LINES_ENV, "4000")),
        seed=int(os.environ.get(SEED_ENV, "2018")),
        n_jobs=int(os.environ.get(JOBS_ENV, "1")),
    )


def config_snapshot(config: Optional[ExperimentConfig] = None) -> Dict[str, int]:
    """The determinism-relevant trace-generation knobs of a bench run.

    This trio fully determines the regenerated tables (the deterministic
    artifacts), so the run record and the manifest carry it.
    """
    config = config if config is not None else bench_config()
    return {
        "trace_length": config.trace_length,
        "random_lines": config.random_lines,
        "seed": config.seed,
    }


def write_result(name: str, text: str) -> Path:
    """Persist a regenerated figure/table under the results directory."""
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def write_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark result as ``BENCH_<name>.json``.

    CI uploads every ``BENCH_*.json`` under the results directory as a build
    artifact and ``bench run`` copies the set to the repository root, so
    these files are the accumulating perf trajectory of the project; keep
    their schemas append-only.
    """
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_once(benchmark: Any, func: Callable, *args: Any, **kwargs: Any) -> Any:
    """Run an experiment exactly once under a benchmark fixture/recorder."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


class BenchmarkRecorder:
    """In-process stand-in for the pytest-benchmark fixture.

    Supports the ``pedantic`` single-round protocol the benchmarks use (the
    regenerated table is the artefact of interest, not micro-timing) and
    records the summed wall clock of the measured calls.
    """

    def __init__(self) -> None:
        self.elapsed_s = 0.0

    def pedantic(
        self,
        func: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        rounds: int = 1,
        iterations: int = 1,
    ) -> Any:
        result = None
        for _ in range(max(1, rounds) * max(1, iterations)):
            start = time.perf_counter()
            result = func(*args, **(kwargs or {}))
            self.elapsed_s += time.perf_counter() - start
        return result

    def __call__(self, func: Callable, *args: Any, **kwargs: Any) -> Any:
        return self.pedantic(func, args=args, kwargs=kwargs)
