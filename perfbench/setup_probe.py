"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <full|smoke> <empty-dir>

Prints the seconds from the simulator's first import to the end of the
workload's set-up -- imports, input generation, corpus or text-trace build,
pool start -- then tears the set-up down.  ``run.py`` runs this between its
timed passes, so the set-up samples spread over the whole run without
touching the live state of the passes.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, label, rep_dir = argv
    sizes = {s.label: s for s in (workloads.FULL, workloads.SMOKE)}[label]
    wl = workloads.WORKLOADS[name](workloads.Context(int(seed), sizes, Path(rep_dir)))
    try:
        wl.setup(Path(rep_dir))
        elapsed = time.perf_counter() - START
    finally:
        wl.close()
    print(elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
