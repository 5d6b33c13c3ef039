"""Record the correctness pins of ``perfbench/pins.json``.

For every workload and seed this runs one set-up and one timed pass at the
full input sizes, recomputes the same digests through the serial reference
path, and pins them only when both agree.  Re-record only on purpose: a
pin that changes means the simulator's output changed.

    python3 perfbench/record_pins.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from catalog import WORKLOADS  # noqa: E402

#: Seeds the benchmark pins: 0-15, the default and the held-out seed.
DEFAULT_SEEDS = tuple(range(16)) + (2018, 9973)


def record(workload: str, seed: int, scratch: Path) -> str:
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    ctx = workloads.Context(seed, workloads.FULL, work_dir)
    wl = workloads.WORKLOADS[workload](ctx)
    try:
        wl.setup(work_dir)
        wl.prepare()
        got = wl.digests(wl.timed())
        want = wl.reference()
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if got != want:
        raise SystemExit(f"{workload} seed {seed}: pass and serial reference disagree")
    return " ".join(got)


def main() -> int:
    pins = {}
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in DEFAULT_SEEDS:
            pins.setdefault(workload, {})[str(seed)] = record(workload, seed, scratch)
            print(f"pinned {workload} seed {seed}", flush=True)
    doc = {"pins": pins, "sizes": asdict(workloads.FULL)}
    (HERE / "pins.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
