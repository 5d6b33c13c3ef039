"""Benchmark-orchestration subsystem: registry, runner, manifest and perf gate.

The paper's evaluation is reproduced by the ``bench_*`` modules under
``benchmarks/``; this package runs them as one in-process harness:

* :mod:`~repro.bench.registry` -- per-module :class:`BenchSpec` metadata and
  :func:`discover`;
* :mod:`~repro.bench.harness` -- the artifact writers and config shared by
  the pytest path and the in-process runner;
* :mod:`~repro.bench.runner` -- run every bench in-process on a single
  shared worker pool;
* :mod:`~repro.bench.manifest` -- the deterministic ``BENCH_manifest.json``
  (the SHA-256 of every regenerated table);
* :mod:`~repro.bench.compare` -- the perf-regression gate against
  ``benchmarks/baselines/``.

CLI: ``repro bench ls | run | compare``.
"""

from .compare import CompareReport, GateCheck, compare, update_baselines
from .harness import (
    BenchmarkRecorder,
    bench_config,
    config_snapshot,
    results_dir,
    run_once,
    write_json,
    write_result,
)
from .manifest import MANIFEST_NAME, build_manifest, copy_trajectory, write_manifest
from .registry import BenchSpec, DiscoveredBench, Gate, default_bench_dir, discover
from .runner import BenchOutcome, RunReport, run_benches

__all__ = [
    "BenchOutcome",
    "BenchSpec",
    "BenchmarkRecorder",
    "CompareReport",
    "DiscoveredBench",
    "Gate",
    "GateCheck",
    "MANIFEST_NAME",
    "RunReport",
    "bench_config",
    "build_manifest",
    "compare",
    "config_snapshot",
    "copy_trajectory",
    "default_bench_dir",
    "discover",
    "results_dir",
    "run_benches",
    "run_once",
    "update_baselines",
    "write_json",
    "write_manifest",
    "write_result",
]
