"""End-to-end benchmark of the WLCRC write-encoding simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8_serial --seed 2018 --seconds 30 --trace 0
    python3 perfbench/run.py --workload granularity_pool --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that records the benchmark's own spans around each layer's
public calls and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and a full result record go to ``.perfbench_out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

from catalog import COUNTERS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-ups of a traced run; its set-up metrics are their medians.
SETUP_REPS = 3
#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Fewest (tracing off, tracing on) pass pairs of a traced run.
MIN_PAIRS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018,
                        help="input-generator seed (default 2018)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured phase (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for a seconds-long self-test (no pins)")
    return parser.parse_args(argv)


def environment(wl) -> dict:
    import numpy
    from repro.compression.backend import get_backend

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "array_backend": get_backend().name,
        "numba": importlib.util.find_spec("numba") is not None,
        "workers_requested": wl.requested_workers,
        "workers": wl.workers,
        "workers_clamped_to_cores": wl.workers < wl.requested_workers,
    }


def cold_setup_seconds(wl, args, rep_dir: Path) -> float:
    """Imports plus one set-up of the workload, timed in a fresh interpreter."""
    rep_dir.mkdir()
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(args.seed),
             wl.ctx.sizes.label, str(rep_dir)],
            check=True, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return float(out.stdout)


def descendants(pid: int) -> list:
    """Live descendant process ids of ``pid``, read from ``/proc``."""
    children = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # the process ended while we looked
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def hwm_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set, KiB) of a live process; 0 if it is gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its live workers, in MB.

    Read while the workload's pool is still up and before any checking, so
    it covers the set-up and the passes only: the fresh-interpreter import
    probes have ended and are not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return max([own] + [hwm_kib(pid) for pid in descendants(os.getpid())]) / 1024.0


def run_setups(wl, work_dir: Path, tracer) -> None:
    """Set up ``SETUP_REPS`` times, each in a fresh directory; the last stays live."""
    for rep in range(SETUP_REPS):
        rep_dir = work_dir / f"setup{rep}"
        rep_dir.mkdir()
        with tracer.span("setup.rep", rep=rep):
            wl.setup(rep_dir)


def one_pass(wl, digests: list, tracer=None, traced: bool = False):
    """Prepare, then time one pass; returns (seconds or None, result)."""
    wl.prepare()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.timed()
        else:
            with tracer.span("pass", traced=traced):
                result = wl.timed()
    except Exception:  # a failed pass counts against every unit it held
        traceback.print_exc(file=sys.stderr)
        digests.append(None)
        return None, None
    elapsed = time.perf_counter() - start
    digests.append(wl.digests(result))
    return elapsed, result


def score(digests: list, expected: list) -> tuple:
    attempted = failed = 0
    for got in digests:
        attempted += len(expected)
        if got is None:
            failed += len(expected)
        else:
            failed += sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
    return attempted, failed


def untraced(wl, args, work_dir: Path, report: dict) -> dict:
    # Cold set-ups (fresh interpreter: imports, then the workload's set-up)
    # are sampled once before the passes and once after each, and their
    # median reported.  On a shared host the same set-up runs up to twice as
    # slow for seconds at a time, so samples taken back to back at the start
    # would all land in one such spell; spread over the run, few do.
    cold = [cold_setup_seconds(wl, args, work_dir / "cold0")]
    live_dir = work_dir / "live"
    live_dir.mkdir()
    start = time.perf_counter()
    wl.setup(live_dir)
    live_setup = time.perf_counter() - start
    walls, digests, result = [], [], None
    one_pass(wl, digests)  # warm-up: lazy imports, worker caches; checked, not timed
    start = time.perf_counter()
    while True:
        elapsed, out = one_pass(wl, digests)
        if elapsed is not None:
            walls.append(elapsed)
            result = out
        cold.append(cold_setup_seconds(wl, args, work_dir / f"cold{len(cold)}"))
        spent = time.perf_counter() - start
        typical = statistics.median(walls) if walls else 0.0
        if len(walls) >= MIN_PASSES and spent + typical > args.seconds:
            break
    if not walls:
        raise RuntimeError("every timed pass failed")
    peak_mb = peak_rss_mb()
    report["passes"] = len(digests)
    report["pass_seconds"] = walls
    report["cold_setup_seconds"] = cold
    report["live_setup_seconds"] = live_setup
    extra_checks = (0, 0)
    if wl.name == "fig8_serial":
        extra_checks = fig8_extras(wl, result, report)
    expected = report["expected"] = oracle(wl, args, report)
    attempted, failed = score(digests, expected)
    report["attempted"] = attempted + extra_checks[0]
    report["failed"] = failed + extra_checks[1]
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(cold),
        "wall_s": wall,
        "lines_per_s": wl.lines_per_pass / wall,
        "peak_rss_mb": peak_mb,
    }


def fig8_extras(wl, result, report: dict) -> tuple:
    """A fresh ``experiments.figure8`` must agree with the last pass; report the saving."""
    try:
        rows = wl.figure8_check(result)
    except AssertionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1, 1
    saving = 100.0 * (1.0 - rows["wlcrc-16"]["Ave."] / rows["6cosets"]["Ave."])
    report["wlcrc16_saving_vs_6cosets_pct"] = saving
    return 1, 0


def oracle(wl, args, report: dict) -> list:
    from workloads import FULL, SMOKE, load_pins, pinned

    sizes = SMOKE if args.smoke else FULL
    pins = pinned(load_pins(PINS), wl.name, args.seed, sizes)
    report["oracle"] = "pins" if pins is not None else "serial-reference"
    return pins if pins is not None else wl.reference()


def traced(wl, args, work_dir: Path, report: dict) -> dict:
    import probes
    from tracing import read_spans, span_problems

    tracer = wl.ctx.tracer
    values = {}
    checks = probes.Checks()
    counters = {"tasks_retried": 0, "pool_rebuilds": 0}
    with tracer.span("run", seed=args.seed):
        with tracer.span("setup"):
            run_setups(wl, work_dir, tracer)
        digests = []
        off, on = [], []
        start = time.perf_counter()
        with tracer.span("passes"):
            from repro.obs import observation

            one_pass(wl, digests, tracer)  # warm-up, as in the untraced run
            while True:
                elapsed, _ = one_pass(wl, digests, tracer, traced=False)
                if elapsed is not None:
                    off.append(elapsed)
                with observation("perfbench-pass") as session:
                    elapsed, _ = one_pass(wl, digests, tracer, traced=True)
                snapshot = session.metrics.snapshot()
                for name in counters:
                    counters[name] += probes.obs_counter(snapshot, name)
                if elapsed is not None:
                    on.append(elapsed)
                pairs = min(len(off), len(on))
                if pairs >= MIN_PAIRS and time.perf_counter() - start > args.seconds / 2:
                    break
        if not off or not on:
            raise RuntimeError("every timed pass failed")
        expected = report["expected"] = oracle(wl, args, report)
        attempted, failed = score(digests, expected)
        checks.attempted += attempted
        checks.failed += failed
        with tracer.span("probes"):
            with tracer.span("probe.inputs"):
                values.update(probes.probe_inputs(wl, tracer, checks))
            sample = wl.probe_sample()
            with tracer.span("probe.compression"):
                values.update(probes.probe_compression(sample.new, tracer, checks))
            with tracer.span("probe.coding"):
                values.update(probes.probe_coding(wl, sample, tracer, checks))
            with tracer.span("probe.parallel"):
                parallel, snapshot = probes.probe_parallel(wl, tracer, checks, expected)
            values.update(parallel)
            for name in counters:
                counters[name] += probes.obs_counter(snapshot, name)
    report["counters"] = {
        "coding.decode_mismatches": values.pop("coding.decode_mismatches"),
        "evaluation.parallel.tasks_retried": counters["tasks_retried"],
        "evaluation.parallel.pool_rebuilds": counters["pool_rebuilds"],
    }
    quiet, loud = statistics.median(off), statistics.median(on)
    values["obs.tracing_overhead_pct"] = 100.0 * (loud - quiet) / quiet
    report["attempted"], report["failed"] = checks.attempted, checks.failed
    report["self_time_top"] = tracer.self_time_table()
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    # Check the file as written, not the tracer's memory: a span the writer
    # lost or mangled would show here as an orphan or a misplaced child.
    report["span_problems"] = span_problems(read_spans(spans_path), wl.name)
    for problem in report["span_problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracing import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = Tracer(args.workload) if args.trace else None
    ctx = workloads.Context(args.seed, sizes, work_dir, tracer)
    wl = workloads.WORKLOADS[args.workload](ctx)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sizes": sizes.label}
    try:
        if args.trace:
            values = traced(wl, args, work_dir, report)
            catalogue = PER_LAYER
        else:
            values = untraced(wl, args, work_dir, report)
            catalogue = END_TO_END
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    report["env"] = environment(wl)

    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue}
    report["metrics"] = metrics
    attempted, failed = report["attempted"], report["failed"]
    counters = report.setdefault("counters", {})
    counters["ops_failed_ratio"] = failed / attempted
    correct = failed == 0 and not report.get("span_problems")
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sizes={sizes.label} oracle={report['oracle']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for name, _ in COUNTERS[args.trace]:
        print(f"  {name:<48} {counters[name]:>14.6g}"
              + (f" ({failed} of {attempted})" if name == "ops_failed_ratio" else ""))
    if "wlcrc16_saving_vs_6cosets_pct" in report:
        print(f"  {'wlcrc16_saving_vs_6cosets_pct':<48} "
              f"{report['wlcrc16_saving_vs_6cosets_pct']:>14.6g} %")
    for row in report.get("self_time_top", ()):
        print(row)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
