"""Command-line interface: run any figure/table experiment from the shell.

Examples
--------
List the available experiments and schemes::

    wlcrc-repro list

Reproduce Figure 8 with short traces::

    wlcrc-repro figure8 --trace-length 2000

Evaluate a single scheme on a single benchmark::

    wlcrc-repro evaluate --scheme wlcrc-16 --benchmark gcc --trace-length 5000

Work with trace files and corpora (see README, "Trace formats" and
"Streaming large traces")::

    wlcrc-repro trace gen --benchmark gcc --length 20000 --corpus traces/
    wlcrc-repro trace convert memory_access.trace --out converted.wtrc
    wlcrc-repro trace info converted.wtrc
    wlcrc-repro trace ls traces/
    wlcrc-repro trace gc traces/ --max-bytes 2G
    wlcrc-repro evaluate --scheme wlcrc-16 --trace converted.wtrc
    wlcrc-repro evaluate --scheme wlcrc-16 --trace memory_access.trace --jobs 4

``trace convert`` to a ``.wtrc`` target and ``evaluate --trace`` on a raw
ASCII trace both *stream*: the input is parsed, synthesised and written (or
evaluated) in fixed-size chunks, so traces far larger than RAM work with
bounded memory.

Orchestrate the figure benchmarks (see README, "Benchmark harness & perf
gate")::

    wlcrc-repro bench ls
    wlcrc-repro bench run --jobs 2
    wlcrc-repro bench compare
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import logging
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from . import evaluation
from .coding import available_schemes, make_scheme
from .core.errors import ReproError, TraceError
from .evaluation import ExperimentConfig, evaluate_schemes, format_series_table
from .hardware import WLCRCSynthesisModel
from .traces.ingest import TRACE_FORMATS
from .workloads import ALL_BENCHMARKS, WriteTrace, generate_benchmark_trace

#: CLI diagnostics go through logging (to stderr), never stdout: JSON and
#: table output must stay machine-parseable under redirection.
_LOG = logging.getLogger("repro.cli")

#: ``--log-level`` choices.
LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level: str) -> None:
    logging.basicConfig(
        level=getattr(logging, level.upper(), logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )

#: Experiment name -> driver function in :mod:`repro.evaluation.experiments`.
EXPERIMENTS: Dict[str, Callable] = {
    "figure1-random": lambda cfg: evaluation.figure1("random", cfg),
    "figure1-biased": lambda cfg: evaluation.figure1("biased", cfg),
    "figure2": evaluation.figure2,
    "figure3": evaluation.figure3,
    "figure4": evaluation.figure4,
    "figure5": evaluation.figure5,
    "figure8": evaluation.figure8,
    "figure9": evaluation.figure9,
    "figure10": evaluation.figure10,
    "figure11": evaluation.figure11,
    "figure12": evaluation.figure12,
    "figure13": evaluation.figure13,
    "figure14": evaluation.figure14,
    "section8d": evaluation.section8d_multiobjective,
    "table1": lambda cfg: evaluation.table1(),
    "hardware": lambda cfg: WLCRCSynthesisModel().overhead_table(),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlcrc-repro",
        description="Reproduce the WLCRC (HPCA 2018) evaluation figures and tables.",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="diagnostic verbosity; all diagnostics go to stderr so stdout "
        "stays machine-parseable (default: warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments and schemes")

    run = subparsers.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_config_arguments(run)

    for name in EXPERIMENTS:
        experiment = subparsers.add_parser(name, help=f"run the {name} experiment")
        _add_config_arguments(experiment)

    evaluate = subparsers.add_parser("evaluate", help="evaluate one scheme on one benchmark")
    evaluate.add_argument("--scheme", default="wlcrc-16", help="scheme name (see 'list')")
    evaluate.add_argument("--benchmark", default="gcc", help=f"benchmark name, one of: {', '.join(ALL_BENCHMARKS)}")
    evaluate.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="evaluate on a trace file instead of a generated benchmark: "
        ".wtrc/.npz files load directly, a raw ASCII address trace "
        "(ramulator2 / ramulator2-inst / tracehm) is streamed through a "
        "temporary .wtrc with bounded memory",
    )
    evaluate.add_argument(
        "--trace-format",
        default="auto",
        choices=["auto", *TRACE_FORMATS],
        help="dialect of an ASCII --trace input (default: sniff)",
    )
    evaluate.add_argument(
        "--content-profile",
        default="gcc",
        dest="content_profile",
        help="content profile used to synthesise line data for an ASCII --trace input",
    )
    _add_config_arguments(evaluate)

    trace = subparsers.add_parser("trace", help="generate, convert, and inspect trace files")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    gen = trace_commands.add_parser("gen", help="generate a synthetic benchmark trace")
    gen.add_argument("--benchmark", default="gcc", help=f"benchmark profile, one of: {', '.join(ALL_BENCHMARKS)}")
    gen.add_argument("--length", type=_positive_int, default=20_000, help="write requests to generate")
    gen.add_argument("--seed", type=_nonnegative_int, default=2018, help="trace-generation seed")
    _add_trace_output_arguments(gen)

    convert = trace_commands.add_parser(
        "convert",
        help="ingest an external address trace (ramulator2 / ramulator2-inst "
        "/ tracehm); .wtrc and corpus targets stream with bounded memory",
    )
    convert.add_argument("input", help="path of the external ASCII trace")
    convert.add_argument(
        "--format",
        dest="fmt",
        default="auto",
        choices=["auto", *TRACE_FORMATS],
        help="input dialect (default: sniff from the first line)",
    )
    convert.add_argument(
        "--profile",
        default="gcc",
        help="content profile used to synthesise line data for the addresses",
    )
    convert.add_argument("--seed", type=_nonnegative_int, default=None, help="extra seed folded into the synthesis")
    _add_trace_output_arguments(convert)

    info = trace_commands.add_parser("info", help="print a trace file's header and statistics")
    info.add_argument("path", help="trace file (.wtrc or .npz)")
    info.add_argument(
        "--stats",
        action="store_true",
        help="also scan the trace data for statistics (full-file read)",
    )
    info.add_argument("--json", action="store_true", help="emit JSON")

    ls = trace_commands.add_parser("ls", help="list the traces of a corpus directory")
    ls.add_argument("corpus", help="corpus directory (holds index.json)")
    ls.add_argument("--json", action="store_true", help="emit JSON")

    gc = trace_commands.add_parser(
        "gc",
        help="evict least-recently-used cached traces until the corpus's "
        "cache/ directory fits a byte budget (named traces are never evicted)",
    )
    gc.add_argument("corpus", help="corpus directory (holds index.json)")
    gc.add_argument(
        "--max-bytes",
        type=_size_argument,
        required=True,
        metavar="SIZE",
        help="cache byte budget; plain bytes or a K/M/G/T-suffixed size (e.g. 2G)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    gc.add_argument("--json", action="store_true", help="emit JSON")

    bench = subparsers.add_parser(
        "bench",
        help="orchestrate the figure benchmarks: list, run, gate against "
        "perf baselines (see README, 'Benchmark harness & perf gate')",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    def _add_bench_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--bench-dir",
            default=None,
            metavar="DIR",
            help="directory holding the bench_* modules (default: the "
            "repository's benchmarks/)",
        )

    bench_ls = bench_commands.add_parser("ls", help="list the registered benchmarks")
    _add_bench_dir(bench_ls)
    bench_ls.add_argument("--json", action="store_true", help="emit JSON")

    bench_run = bench_commands.add_parser(
        "run",
        help="run every benchmark in-process and write BENCH_manifest.json",
    )
    _add_bench_dir(bench_run)
    bench_run.add_argument(
        "--results",
        default=None,
        metavar="DIR",
        help="artifact directory (default benchmarks/results)",
    )
    bench_run.add_argument(
        "--jobs",
        type=_jobs_argument,
        default=None,
        help="worker processes of the shared evaluation pool, reused across "
        "every figure (1 = serial, 0 or -1 = all cores)",
    )
    bench_run.add_argument(
        "--trajectory-dir",
        default=None,
        metavar="DIR",
        help="where to copy the BENCH_*.json perf trajectory "
        "(default: current directory)",
    )
    bench_run.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not copy BENCH_*.json out of the results directory",
    )
    bench_run.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="deterministic chaos testing: execute this fault plan while "
        "the benchmarks run, e.g. 'worker-crash@task:3'; recovered artifacts "
        "stay byte-identical (see docs/robustness.md)",
    )
    bench_run.add_argument(
        "--profile",
        action="store_true",
        help="run the benchmarks under an observation session: writes "
        "run_record.trace.jsonl next to the run record and embeds a "
        "'profile' summary section in it",
    )
    bench_run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="also write the run's trace to this path (Chrome trace-event "
        "JSON; use a .jsonl suffix for the span-log format); implies --profile",
    )
    bench_run.add_argument("--json", action="store_true", help="emit JSON")

    bench_compare = bench_commands.add_parser(
        "compare",
        help="diff current BENCH_*.json metrics against the checked-in "
        "baselines; exit 1 on any perf regression past its tolerance",
    )
    _add_bench_dir(bench_compare)
    bench_compare.add_argument(
        "--results",
        default=None,
        metavar="DIR",
        help="results directory to compare (default benchmarks/results)",
    )
    bench_compare.add_argument(
        "--baselines",
        default=None,
        metavar="DIR",
        help="baseline directory (default benchmarks/baselines)",
    )
    bench_compare.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the current results instead of comparing",
    )
    bench_compare.add_argument(
        "--strict",
        action="store_true",
        help="also fail on missing baselines and context mismatches",
    )
    bench_compare.add_argument("--json", action="store_true", help="emit JSON")

    profile = subparsers.add_parser(
        "profile",
        help="summarise an observability trace written by --trace-out or "
        "a profiled bench run (span log or Chrome trace)",
    )
    profile.add_argument(
        "path",
        help="trace file: a .trace.jsonl span log or a Chrome trace-event .json",
    )
    profile.add_argument("--json", action="store_true", help="emit JSON")

    docs = subparsers.add_parser(
        "docs",
        help="generate and check the docs/ tree (CLI reference, link checker)",
    )
    docs_commands = docs.add_subparsers(dest="docs_command", required=True)
    docs_cli = docs_commands.add_parser(
        "cli",
        help="emit the generated CLI reference (docs/cli.md) from the "
        "argparse tree",
    )
    docs_cli.add_argument(
        "--write",
        action="store_true",
        help="write docs/cli.md in place instead of printing to stdout",
    )
    docs_cli.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/cli.md is stale (CI's regenerate-and-diff)",
    )
    docs_cli.add_argument(
        "--docs-dir",
        default="docs",
        metavar="DIR",
        help="docs directory holding cli.md (default: docs)",
    )
    docs_check = docs_commands.add_parser(
        "check",
        help="validate the docs tree: relative links and anchors resolve, "
        "and the generated CLI reference is current",
    )
    docs_check.add_argument(
        "--docs-dir",
        default="docs",
        metavar="DIR",
        help="docs directory to check (default: docs)",
    )
    return parser


def _add_trace_output_arguments(parser: argparse.ArgumentParser) -> None:
    output = parser.add_mutually_exclusive_group(required=True)
    output.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output trace file (.wtrc for the raw mmap format, .npz for the archive)",
    )
    output.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="register the trace in this corpus directory instead of --out",
    )
    parser.add_argument("--name", default=None, help="trace name inside the corpus")


def _jobs_argument(value: str) -> int:
    jobs = int(value)
    if jobs < -1:
        raise argparse.ArgumentTypeError("must be a positive integer, 0 or -1 (all cores)")
    return jobs


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return parsed


_SIZE_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def _size_argument(value: str) -> int:
    """Byte count, plain (``1048576``) or binary-suffixed (``1M``, ``2G``)."""
    text = value.strip().upper()
    if text.endswith("B") and len(text) > 1:  # accept 2GB / 512KB spellings
        text = text[:-1]
    scale = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        parsed = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse size {value!r}; use bytes or a K/M/G/T suffix"
        )
    if not (0 <= parsed < float(1 << 62)):  # rejects negatives, inf and nan
        raise argparse.ArgumentTypeError(
            f"size {value!r} must be a finite non-negative byte count"
        )
    return int(parsed * scale)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-length", type=_positive_int, default=4000, help="write requests per benchmark")
    parser.add_argument("--seed", type=_nonnegative_int, default=2018, help="trace-generation seed")
    parser.add_argument(
        "--jobs",
        type=_jobs_argument,
        default=1,
        help="worker processes for the evaluation (1 = serial, 0 or -1 = all cores)",
    )
    parser.add_argument(
        "--backend",
        choices=["process", "thread"],
        default="process",
        help="worker-pool backend for --jobs > 1: 'process' isolates workers "
        "(best for long sweeps), 'thread' skips process start-up and trace "
        "export (the GIL-free compression kernels make this competitive for "
        "small sweeps); results are bit-identical either way",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace-corpus directory: benchmark traces are cached there and memory-mapped",
    )
    parser.add_argument(
        "--trace-cache-budget",
        type=_size_argument,
        default=None,
        metavar="SIZE",
        help="byte budget of the --trace-dir generation cache; least-recently-"
        "used cached traces are evicted past it (bytes or K/M/G/T suffix)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task watchdog of the parallel engine: a worker task "
        "exceeding it is presumed hung, the pool is rebuilt and only the "
        "lost work resubmitted (results stay bit-identical; default: off)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="deterministic chaos testing: a comma-separated fault plan like "
        "'worker-crash@task:3,worker-hang@task:5:2s' executed at the named "
        "injection sites; recovered runs stay bit-identical "
        "(see docs/robustness.md; also the REPRO_FAULTS env var)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print a span/metric profile summary to "
        "stderr (stdout output is unaffected; results stay bit-identical)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the run's trace to this path -- Chrome trace-event JSON "
        "loadable in Perfetto, or the JSON-lines span log for a .jsonl "
        "suffix; implies tracing on",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a text table")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        trace_length=args.trace_length,
        seed=args.seed,
        n_jobs=args.jobs,
        backend=args.backend,
        trace_dir=args.trace_dir,
        trace_cache_budget=args.trace_cache_budget,
        task_timeout=args.task_timeout,
    )


def _fail(message: str, candidates: Sequence[str] = ()) -> int:
    """Print a friendly error (with 'did you mean' suggestions) and return 2."""
    print(f"error: {message}", file=sys.stderr)
    if candidates:
        print(f"did you mean: {', '.join(candidates)}?", file=sys.stderr)
    return 2


def _suggest(name: str, known: Sequence[str]) -> Sequence[str]:
    return difflib.get_close_matches(name, list(known), n=3, cutoff=0.4)


def _unknown_name(kind: str, value: str, known: Sequence[str]) -> int:
    """Exit-2 error for an unrecognised name, with close-match suggestions."""
    return _fail(f"unknown {kind} {value!r}", _suggest(value, known))


def _format_profile(summary: Dict) -> str:
    """Human rendering of an :func:`repro.obs.profile_summary` payload."""
    parts = []
    span_rows = {
        name: {
            "count": entry["count"],
            "total_ms": entry["total_ms"],
            "mean_ms": entry["mean_ms"],
            "max_ms": entry["max_ms"],
        }
        for name, entry in summary["spans"].items()
    }
    if span_rows:
        parts.append(
            format_series_table(
                span_rows, precision=2, title="Span summary", row_header="span"
            )
        )
    metrics = summary["metrics"]
    if metrics:
        lines = ["metrics:"]
        for key, value in metrics.items():
            if isinstance(value, dict):
                lines.append(
                    f"  {key}: count={value['count']} mean={value['mean']:.3f} "
                    f"min={value['min']:.3f} max={value['max']:.3f}"
                )
            else:
                lines.append(f"  {key}: {value}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) if parts else "no spans recorded"


@contextlib.contextmanager
def _observation_scope(args: argparse.Namespace, label: str):
    """Trace a command's run when ``--profile`` / ``--trace-out`` ask for it.

    On exit: ``--trace-out`` writes the session to the requested file and
    ``--profile`` prints the summary table to *stderr* -- stdout belongs to
    the command's own (often JSON) output.
    """
    from . import obs

    trace_out = getattr(args, "trace_out", None)
    profiling = getattr(args, "profile", False) or trace_out is not None
    if not profiling:
        yield
        return
    with obs.observation(label) as session:
        yield
    if trace_out is not None:
        path = obs.write_session(session, Path(trace_out))
        _LOG.info("wrote trace to %s", path)
    if getattr(args, "profile", False):
        summary = obs.profile_summary(session.spans, session.metrics.snapshot())
        print(_format_profile(summary), file=sys.stderr)


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result, indent=2, default=float))
        return
    if isinstance(result, dict) and result and isinstance(next(iter(result.values())), dict):
        flattened = {}
        for row, columns in result.items():
            flattened[str(row)] = {
                str(col): (value if isinstance(value, (int, float, str)) else str(value))
                for col, value in columns.items()
            }
        print(format_series_table(flattened, precision=2))
    else:
        print(result)


# ---------------------------------------------------------------------- #
# Trace subcommands
# ---------------------------------------------------------------------- #
def _write_trace_output(
    trace: WriteTrace,
    args: argparse.Namespace,
    profile: Optional[str] = None,
    seed: Optional[int] = None,
) -> int:
    """Store a trace per ``--out`` / ``--corpus`` and report where it went."""
    from .traces import TraceCorpus

    try:
        if args.corpus is not None:
            path = TraceCorpus(args.corpus).add(
                trace, name=args.name, profile=profile, seed=seed
            )
        else:  # --out (argparse enforces exactly one of --out/--corpus)
            if args.name:
                trace.name = args.name
            path = trace.save(args.out)
    except (TraceError, OSError) as exc:  # missing directory, permissions, ...
        return _fail(str(exc))
    print(f"wrote {len(trace)} write requests to {path}")
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    if args.benchmark not in ALL_BENCHMARKS:
        return _unknown_name("benchmark", args.benchmark, ALL_BENCHMARKS)
    trace = generate_benchmark_trace(args.benchmark, args.length, args.seed)
    if args.name:
        trace.name = args.name
    return _write_trace_output(trace, args, profile=args.benchmark, seed=args.seed)


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from .traces import (
        TRACE_SUFFIX,
        TraceCorpus,
        read_npz_trace_lines,
        read_trace_header,
        stream_ingest_to_npz,
        stream_ingest_to_wtrc,
    )

    if args.profile not in ALL_BENCHMARKS:
        return _unknown_name("profile", args.profile, ALL_BENCHMARKS)
    streamed_target = None
    corpus = None
    if args.corpus is not None:
        corpus = TraceCorpus(args.corpus)
        name = args.name or Path(args.input).stem
        try:
            TraceCorpus.validate_name(name)
        except TraceError as exc:
            return _fail(str(exc))
        streamed_target = corpus.root / f"{name}{TRACE_SUFFIX}"
    elif Path(args.out).suffix == TRACE_SUFFIX:
        name = args.name or Path(args.input).stem
        streamed_target = Path(args.out)
    if streamed_target is not None:
        # Raw-format targets stream: parse -> synthesise -> write, one chunk
        # at a time, so multi-GB ASCII traces convert with bounded memory.
        try:
            stream_ingest_to_wtrc(
                args.input,
                streamed_target,
                fmt=args.fmt,
                profile=args.profile,
                name=name,
                seed=args.seed,
            )
            if corpus is not None:
                corpus.add_path(
                    streamed_target, name=name, profile=args.profile, seed=args.seed
                )
            n_lines = read_trace_header(streamed_target).n_lines
        except (TraceError, OSError) as exc:
            return _fail(str(exc))
        print(f"wrote {n_lines} write requests to {streamed_target}")
        return 0
    # .npz archives stream too: spooled columns are fed straight into the
    # compressed zip members, so no target format materialises the trace.
    out = Path(args.out)
    if out.suffix != ".npz":  # mirror WriteTrace.save's suffix coercion
        out = out.with_name(out.name + ".npz")
    try:
        stream_ingest_to_npz(
            args.input,
            out,
            fmt=args.fmt,
            profile=args.profile,
            name=args.name or Path(args.input).stem,
            seed=args.seed,
        )
        n_lines = read_npz_trace_lines(out)
    except (TraceError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {n_lines} write requests to {out}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .traces import is_wtrc_file, read_trace_header

    path = Path(args.path)
    try:
        is_wtrc = path.exists() and is_wtrc_file(path)
    except TraceError as exc:
        return _fail(str(exc))
    try:
        if is_wtrc and not args.stats:
            # Header-only: O(1) regardless of trace size.
            header = read_trace_header(path)
            info = {
                "name": header.name,
                "requests": header.n_lines,
                "has_addresses": header.has_addresses,
                "memory_mapped": True,
                "metadata": dict(header.metadata),
            }
        else:
            trace = WriteTrace.load(path)
            info = {
                "name": trace.name,
                "requests": len(trace),
                "has_addresses": trace.addresses is not None,
                "memory_mapped": trace.mmap_path is not None,
                "metadata": dict(trace.metadata),
            }
            if args.stats:
                info["changed_bit_fraction"] = round(trace.changed_bit_fraction(), 6)
    except TraceError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(info, indent=2, default=str))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def _cmd_trace_ls(args: argparse.Namespace) -> int:
    from .traces import TraceCorpus

    corpus = TraceCorpus(args.corpus)
    if not corpus.index_path.exists():
        return _fail(f"{args.corpus} is not a trace corpus (no {corpus.index_path.name})")
    try:
        entries = corpus.entries()
    except TraceError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps({name: entry.as_dict() for name, entry in sorted(entries.items())}, indent=2))
        return 0
    if not entries:
        print("corpus is empty")
        return 0
    rows = {
        name: {
            "lines": entry.n_lines,
            "profile": entry.profile or "-",
            # verbatim, not through the numeric formatter ("2018", not "2,018")
            "seed": str(entry.seed) if entry.seed is not None else "-",
            "file": entry.file,
        }
        for name, entry in sorted(entries.items())
    }
    print(format_series_table(rows, row_header="trace"))
    return 0


def _cmd_trace_gc(args: argparse.Namespace) -> int:
    from .traces import TraceCorpus

    corpus = TraceCorpus(args.corpus)
    if not corpus.root.is_dir():
        return _fail(f"{args.corpus} is not a trace corpus directory")
    try:
        report = corpus.gc(budget_bytes=args.max_bytes, dry_run=args.dry_run)
    except TraceError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    verb = "would evict" if args.dry_run else "evicted"
    removed = report["removed"]
    if removed:
        print(f"{verb} {len(removed)} cached trace(s), freeing {report['freed_bytes']} bytes:")
        for name in removed:
            print(f"  cache/{name}")
    else:
        print("cache already within budget; nothing to evict")
    print(f"cache size: {report['kept_bytes']} bytes (budget {report['budget_bytes']})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "gen": _cmd_trace_gen,
        "convert": _cmd_trace_convert,
        "info": _cmd_trace_info,
        "ls": _cmd_trace_ls,
        "gc": _cmd_trace_gc,
    }
    return handlers[args.trace_command](args)


# ---------------------------------------------------------------------- #
# Bench subcommands
# ---------------------------------------------------------------------- #
def _bench_registry(args: argparse.Namespace):
    """Resolve ``--bench-dir`` and discover the benchmark registry."""
    from .bench import default_bench_dir, discover

    bench_dir = Path(args.bench_dir) if args.bench_dir else default_bench_dir()
    return bench_dir, discover(bench_dir)


def _cmd_bench_ls(args: argparse.Namespace) -> int:
    try:
        _bench_dir, registry = _bench_registry(args)
    except (ReproError, OSError) as exc:
        return _fail(str(exc))
    if args.json:
        payload = {
            name: {
                "figure": bench.spec.figure,
                "title": bench.spec.title,
                "module": bench.spec.module,
                "env": list(bench.spec.env),
                "artifacts": list(bench.spec.artifacts),
                "perf_artifacts": list(bench.spec.perf_artifacts),
                "gates": len(bench.spec.gates),
            }
            for name, bench in registry.items()
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = {
        name: {
            "figure": bench.spec.figure,
            "artifacts": len(bench.spec.all_artifacts),
            "gates": len(bench.spec.gates),
        }
        for name, bench in registry.items()
    }
    print(format_series_table(rows, row_header="bench"))
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .bench import copy_trajectory, run_benches

    try:
        bench_dir, registry = _bench_registry(args)
        report = run_benches(
            bench_dir=bench_dir,
            results_dir=Path(args.results) if args.results else None,
            jobs=args.jobs,
            registry=registry,
            profile=args.profile,
            trace_out=Path(args.trace_out) if args.trace_out else None,
        )
    except (ReproError, OSError) as exc:
        return _fail(str(exc))
    if report.trace_path is not None:
        _LOG.info("wrote span log to %s", report.trace_path)
    if args.json:
        payload = report.as_dict()
        payload["record"] = str(report.record_path)
        if report.manifest_path is not None:
            payload["manifest"] = str(report.manifest_path)
        if report.trace_path is not None:
            payload["trace"] = str(report.trace_path)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = {
            outcome.name: {
                "status": outcome.status,
                "wall_clock_s": outcome.wall_clock_s,
                "functions": len(outcome.functions),
            }
            for outcome in report.outcomes
        }
        title = f"Benchmark run ({report.wall_clock_s:.1f}s)"
        print(format_series_table(rows, title=title, row_header="bench"))
    for outcome in report.failures:
        print(f"\nFAILED {outcome.name}:\n{outcome.error}", file=sys.stderr)
    if report.failures:
        return 1
    if not args.no_trajectory:
        try:
            copy_trajectory(
                report.record_path.parent, Path(args.trajectory_dir or ".")
            )
        except OSError as exc:
            return _fail(f"cannot copy the BENCH trajectory: {exc}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import compare, update_baselines

    try:
        bench_dir, registry = _bench_registry(args)
        results = Path(args.results) if args.results else bench_dir / "results"
        baselines = Path(args.baselines) if args.baselines else bench_dir / "baselines"
        specs = {name: bench.spec for name, bench in registry.items()}
        if args.update:
            written = update_baselines(specs, results, baselines)
            for path in written:
                print(f"wrote {path}")
            return 0
        report = compare(specs, results, baselines, strict=args.strict)
    except (ReproError, OSError) as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        rows = {}
        for check in report.checks:
            change = check.change_pct
            rows[f"{check.bench}: {check.metric}"] = {
                "baseline": check.baseline if check.baseline is not None else "-",
                "current": check.current if check.current is not None else "-",
                "change": f"{change:+.1f}%" if change is not None else "-",
                "allowed": f"{check.direction} +-{check.tolerance_pct:g}%",
                "status": check.status,
            }
        if rows:
            print(format_series_table(rows, precision=4, row_header="gate"))
        else:
            print("no perf gates registered")
    # Diagnostics go to stderr via logging, never interleaved with the
    # result table/JSON on stdout.
    for check in report.checks:
        if check.detail:
            _LOG.warning("%s: %s: %s", check.bench, check.metric, check.detail)
    if not report.ok:
        _LOG.error("perf regression gate FAILED")
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    handlers = {
        "ls": _cmd_bench_ls,
        "run": _cmd_bench_run,
        "compare": _cmd_bench_compare,
    }
    return handlers[args.bench_command](args)


# ---------------------------------------------------------------------- #
# Evaluate
# ---------------------------------------------------------------------- #
def _load_evaluation_trace(args: argparse.Namespace):
    """Resolve ``--trace`` into a trace plus a cleanup callback.

    ``.wtrc``/``.npz`` files (by suffix or sniffed magic) load as before --
    raw traces memory-mapped, archives decompressed.  Anything else is
    treated as a raw ASCII address trace and *streamed*: ingest writes a
    temporary ``.wtrc`` one chunk at a time, the evaluation memory-maps it
    (so ``--jobs`` ships workers mmap descriptors), and the cleanup callback
    removes the temporary file afterwards.  Peak memory is bounded by the
    synthesis quantum, never the trace length.
    """
    import shutil
    import tempfile

    from .traces import is_wtrc_file, stream_ingest_to_wtrc
    from .traces.store import load_trace

    path = Path(args.trace)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    known_container = path.suffix in (".wtrc", ".npz")
    if not known_container and path.is_file():
        with open(path, "rb") as fh:
            magic = fh.read(4)
        known_container = magic.startswith(b"PK") or is_wtrc_file(path)
    if known_container or not path.is_file():
        return WriteTrace.load(args.trace), lambda: None
    if args.content_profile not in ALL_BENCHMARKS:
        raise TraceError(
            f"unknown profile {args.content_profile!r} for ASCII trace synthesis "
            f"(have: {', '.join(ALL_BENCHMARKS)})"
        )
    tmp_dir = Path(tempfile.mkdtemp(prefix="wlcrc-stream-"))
    try:
        # seed=None matches `trace convert`'s default synthesis, so
        # evaluating the ASCII file directly is bit-identical to converting
        # it first and evaluating the .wtrc (--seed only seeds generated
        # benchmark traces and disturbance sampling).
        spooled = stream_ingest_to_wtrc(
            path,
            tmp_dir / f"{path.stem}.wtrc",
            fmt=args.trace_format,
            profile=args.content_profile,
        )
        return load_trace(spooled, mmap=True), lambda: shutil.rmtree(
            tmp_dir, ignore_errors=True
        )
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        encoder = make_scheme(args.scheme)
    except (ReproError, ValueError):
        return _unknown_name("scheme", args.scheme, available_schemes())
    if args.trace is None and args.benchmark not in ALL_BENCHMARKS:
        return _unknown_name("benchmark", args.benchmark, ALL_BENCHMARKS)
    cleanup = lambda: None  # noqa: E731 - trivial default
    # The scope opens first, so a profile also shows a raw trace's ingest.
    with _observation_scope(args, f"evaluate-{args.scheme}"):
        if args.trace is not None:
            try:
                trace, cleanup = _load_evaluation_trace(args)
            except (TraceError, OSError) as exc:
                candidates = ()
                parent = Path(args.trace).parent
                if not Path(args.trace).exists() and parent.is_dir():
                    candidates = _suggest(
                        Path(args.trace).name,
                        [p.name for p in parent.iterdir() if p.suffix in (".wtrc", ".npz")],
                    )
                return _fail(str(exc), candidates)
        elif config.trace_dir:
            from .traces import TraceCorpus

            try:
                trace = TraceCorpus(
                    config.trace_dir, cache_budget_bytes=config.trace_cache_budget
                ).get_or_generate(args.benchmark, config.trace_length, config.seed)
            except (TraceError, OSError) as exc:
                return _fail(f"cannot use trace corpus {config.trace_dir}: {exc}")
        else:
            trace = generate_benchmark_trace(args.benchmark, config.trace_length, config.seed)
        try:
            results = evaluate_schemes(
                [encoder],
                trace,
                config.evaluation,
                n_jobs=config.n_jobs,
                backend=config.backend,
                task_timeout=config.task_timeout,
            )
        finally:
            cleanup()
    metrics = next(iter(results.values()))
    # Keyed by scheme whatever the trace's source, so outputs compare.
    _print_result({args.scheme: metrics.as_dict()}, args.json)
    return 0


# ---------------------------------------------------------------------- #
# Profile
# ---------------------------------------------------------------------- #
def _cmd_profile(args: argparse.Namespace) -> int:
    from . import obs

    path = Path(args.path)
    if not path.is_file():
        return _fail(f"trace file not found: {path}")
    try:
        if path.suffix == ".jsonl":
            spans, metrics, _meta = obs.read_jsonl(path)
        else:
            spans, metrics = obs.read_chrome_trace(path)
    except (ValueError, OSError) as exc:
        return _fail(f"cannot parse trace {path}: {exc}")
    summary = obs.profile_summary(spans, metrics)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(_format_profile(summary))
    return 0


# ---------------------------------------------------------------------- #
# Docs
# ---------------------------------------------------------------------- #
def _cmd_docs(args: argparse.Namespace) -> int:
    from .docsgen import check_links, generate_cli_reference

    docs_dir = Path(args.docs_dir)
    reference = generate_cli_reference()
    cli_page = docs_dir / "cli.md"
    if args.docs_command == "cli":
        if args.check:
            current = cli_page.read_text() if cli_page.is_file() else None
            if current != reference:
                return _fail(
                    f"{cli_page} is stale; regenerate with "
                    "'repro docs cli --write'"
                )
            print(f"{cli_page} is current")
            return 0
        if args.write:
            docs_dir.mkdir(parents=True, exist_ok=True)
            cli_page.write_text(reference)
            print(str(cli_page))
            return 0
        print(reference, end="")
        return 0
    # docs check: link integrity over docs/ + README, and cli.md freshness.
    if not docs_dir.is_dir():
        return _fail(f"docs directory not found: {docs_dir}")
    pages = sorted(docs_dir.glob("*.md"))
    readme = docs_dir.parent / "README.md"
    if readme.is_file():
        pages.append(readme)
    problems = check_links(pages)
    if cli_page.is_file():
        if cli_page.read_text() != reference:
            problems.append(f"{cli_page}: stale (run 'repro docs cli --write')")
    else:
        problems.append(f"{cli_page}: missing (run 'repro docs cli --write')")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"docs ok: {len(pages)} pages checked")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``wlcrc-repro`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)

    if getattr(args, "inject_faults", None):
        from . import faults

        try:
            faults.install(args.inject_faults)
        except faults.FaultPlanError as exc:
            return _fail(str(exc))

    if args.command == "list":
        print("experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("schemes:")
        for name in available_schemes():
            print(f"  {name}")
        print("benchmarks:")
        for name in ALL_BENCHMARKS:
            print(f"  {name}")
        return 0

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "bench":
        return _cmd_bench(args)

    if args.command == "evaluate":
        return _cmd_evaluate(args)

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "docs":
        return _cmd_docs(args)

    experiment_name = args.experiment if args.command == "run" else args.command
    config = _config_from_args(args)
    try:
        with _observation_scope(args, f"experiment-{experiment_name}"):
            result = EXPERIMENTS[experiment_name](config)
    except (ReproError, OSError) as exc:
        return _fail(str(exc))
    _print_result(result, args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
