"""The deterministic ``BENCH_manifest.json`` of a benchmark run.

The manifest is deliberately free of wall-clock data so that it is a pure
function of the registry and the deterministic artifacts: for each bench it
records the figure id, title, module, and the SHA-256 of every
deterministic table (perf artifacts are listed with a ``null`` digest).  Two
runs under the same trace-generation config therefore write byte-identical
manifests, on any machine, profiled or not, with or without injected faults.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..core.errors import BenchError
from .registry import BenchSpec

#: File name of the manifest.
MANIFEST_NAME = "BENCH_manifest.json"


def file_digest(path: Path) -> str:
    """The ``sha256:<hex>`` digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def build_manifest(
    specs: Mapping[str, BenchSpec],
    results_dir: Path,
    config: Mapping[str, int],
) -> dict:
    """The manifest payload for a fully populated results directory."""
    benchmarks = {}
    for name in sorted(specs):
        spec = specs[name]
        artifacts: Dict[str, Optional[str]] = {}
        for artifact in spec.artifacts:
            path = results_dir / artifact
            if not path.is_file():
                raise BenchError(f"bench {name!r}: missing artifact {artifact!r}")
            artifacts[artifact] = file_digest(path)
        for artifact in spec.perf_artifacts:
            if not (results_dir / artifact).is_file():
                raise BenchError(f"bench {name!r}: missing perf artifact {artifact!r}")
            artifacts[artifact] = None
        benchmarks[name] = {
            "figure": spec.figure,
            "title": spec.title,
            "module": spec.module,
            "artifacts": artifacts,
        }
    return {"schema": 1, "config": dict(config), "benchmarks": benchmarks}


def write_manifest(payload: dict, results_dir: Path) -> Path:
    path = results_dir / MANIFEST_NAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def copy_trajectory(results_dir: Path, trajectory_dir: Path) -> List[Path]:
    """Copy every ``BENCH_*.json`` of a results directory somewhere else.

    The repository root keeps the latest ``BENCH_*.json`` set checked in as
    the tracked perf trajectory; the CI bench job refreshes it and fails if
    the manifest moved.  The run record and its span log are named outside
    this glob -- their wall clocks differ on every machine and would
    re-dirty the tracked set on each run.
    """
    trajectory_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        target = trajectory_dir / path.name
        if target.resolve() != path.resolve():
            shutil.copyfile(path, target)
        copied.append(target)
    return copied
