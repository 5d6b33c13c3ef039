"""Run every workload once and print all end-to-end metrics by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs untraced in its own ``run.py`` process, one after the other.
Exits non-zero if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default="2018")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if lines else out.stderr)
        if out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
