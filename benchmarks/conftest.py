"""Pytest glue of the figure/table reproduction benchmarks.

Each ``bench_*`` module regenerates one figure or table of the paper's
evaluation section and declares a module-level ``BENCHMARK = BenchSpec(...)``
registering it with the benchmark-orchestration subsystem
(:mod:`repro.bench`): figure id, environment knobs, produced artifacts,
and perf-regression gates.

The modules run two ways off one registry:

* ``pytest benchmarks -o python_files='bench_*.py' -o python_functions='bench_*'``
  collects them as tests (``benchmark`` is the pytest-benchmark fixture);
* ``repro bench run`` executes them all in-process on a single shared
  worker pool, with ``repro bench compare`` downstream (see README,
  "Benchmark harness & perf gate").

Environment knobs:

``REPRO_BENCH_TRACE_LEN``
    Write requests per benchmark trace (default 1200).  Larger values give
    smoother numbers at proportionally higher runtime.
``REPRO_BENCH_SEED``
    Seed of the synthetic trace generator (default 2018).
``REPRO_BENCH_JOBS``
    Worker processes of the shared evaluation pool (default 1).
``REPRO_BENCH_RESULTS_DIR``
    Artifact directory (default ``benchmarks/results``).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bench_config
from repro.evaluation.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """Session-wide experiment configuration (see module docstring)."""
    return bench_config()
