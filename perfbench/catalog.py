"""Every metric the benchmark reports, with its unit, direction and purpose.

This module is the single source of truth for metric names: ``run.py``
prints exactly these names, ``BENCHMARK.json`` lists exactly these entries,
and ``test_perfbench.py`` checks the three agree.  Each per-layer metric also
names the end-to-end metric it should move and on which workload, written
down before any optimisation is measured against it.

One rule decides what is a metric: ``BENCHMARK.json`` lists only measured
quantities, which never read 0.  Counters that are 0 whenever the program
is correct and healthy (``COUNTERS``) are printed and kept in the result
record, and a non-zero failure counter makes the run incorrect, but they
are not metrics.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

WORKLOADS = ("fig8_serial", "granularity_pool", "ingest_stream")

#: Metric names ``BENCHMARK.json`` accepts, and its limits on metric counts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

#: Schemes run by ``experiments.evaluate_all_schemes`` (Figures 8-10).
FIG8_SCHEMES = (
    "baseline",
    "flipmin",
    "fnw-128",
    "din",
    "6cosets-512",
    "coc+4cosets",
    "wlc+4cosets-32",
    "wlcrc-16",
)
#: Schemes run by the Figures 11-13 granularity sweep.
WLC_SCHEMES = tuple(
    f"{family}-{g}" for family in ("wlc+4cosets", "wlc+3cosets", "wlcrc") for g in (8, 16, 32, 64)
)
#: Schemes of the ingest_stream workload's two work units.
INGEST_SCHEMES = ("baseline", "wlcrc-16")
#: Every scheme these workloads run, in report order (18 distinct names).
ALL_SCHEMES = tuple(dict.fromkeys(FIG8_SCHEMES[:6] + WLC_SCHEMES))
#: Schemes that compress before encoding and so report ``.encoded_ratio``.
COMPRESSING_SCHEMES = tuple(
    s for s in ALL_SCHEMES if s in ("din", "coc+4cosets") or s.startswith("wlc")
)

def metric_scheme(scheme: str) -> str:
    """Scheme name as it appears inside a metric name (``+`` becomes ``_``)."""
    return scheme.replace("+", "_")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports plus the median of repeated set-ups: trace generation, "
             "corpus or text-trace build, pool start"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median host seconds of one pass of the workload's timed phase"),
    EndToEnd("lines_per_s", "1/s", "higher", 0.25,
             "line-encodes (trace lines summed over all work units) per host second"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "highest resident-set high-water mark of the parent and its workers"),
)

_F8, _GP, _IS = WORKLOADS


def _m(*pairs: Tuple[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(pairs)


def _per_layer() -> List[PerLayer]:
    out: List[PerLayer] = [
        PerLayer("workloads.generate_s", "s", "lower", _m(("setup_s", _F8)),
                 "generate_benchmark_trace over the 12 profiles"),
        PerLayer("traces.corpus_build_s", "s", "lower", _m(("setup_s", _GP)),
                 "cold TraceCorpus.get_or_generate over the 12 profiles"),
        PerLayer("traces.parse_lines_per_s", "1/s", "higher", _m(("wall_s", _IS)),
                 "ramulator2 text lines parsed per second (iter_trace_address_chunks)"),
        PerLayer("traces.synthesize_lines_per_s", "1/s", "higher", _m(("wall_s", _IS)),
                 "write lines synthesised per second (StreamingSynthesizer.feed_all)"),
        PerLayer("traces.wtrc_write_s", "s", "lower", _m(("wall_s", _IS)),
                 "TraceWriter append and close of the ingested trace"),
        PerLayer("traces.mmap_load_s", "s", "lower", _m(("wall_s", _IS)),
                 "load_trace memory-mapping the .wtrc back (median of 5)"),
        PerLayer("compression.wlc.compress_lines_per_s", "1/s", "higher",
                 _m(("lines_per_s", _GP), ("lines_per_s", _F8)),
                 "WLC (k=6) compressibility test plus compress_batch, lines attempted per second"),
        PerLayer("compression.wlc.decompress_lines_per_s", "1/s", "higher",
                 _m(("lines_per_s", _GP), ("lines_per_s", _F8)),
                 "WLC decompress_batch, compressed lines per second"),
        PerLayer("compression.coc.compress_lines_per_s", "1/s", "higher",
                 _m(("lines_per_s", _F8)),
                 "COC sizes_bits plus compress_batch, lines attempted per second"),
        PerLayer("compression.wlc.compressed_ratio", "ratio", "higher",
                 _m(("lines_per_s", _GP), ("lines_per_s", _F8)),
                 "WLC-compressible lines / lines attempted (the paper reports >0.91)"),
        PerLayer("compression.coc.compressed_ratio", "ratio", "higher",
                 _m(("lines_per_s", _F8)),
                 "lines within the 32-bit-mode COC budget / lines attempted"),
    ]
    for scheme in ALL_SCHEMES:
        s = metric_scheme(scheme)
        if scheme in WLC_SCHEMES:
            moves = [("lines_per_s", _GP)]
            if scheme in FIG8_SCHEMES:
                moves.append(("lines_per_s", _F8))
            if scheme in INGEST_SCHEMES:
                moves.append(("lines_per_s", _IS))
        elif scheme == "baseline":
            moves = [("lines_per_s", _IS), ("lines_per_s", _F8)]
        else:
            moves = [("lines_per_s", _F8)]
        moves_t = tuple(moves)
        out += [
            PerLayer(f"coding.{s}.lines_per_s", "1/s", "higher", moves_t,
                     f"{scheme} encode_batch lines per second"),
            PerLayer(f"coding.{s}.reference_encode_s", "s", "lower", moves_t,
                     f"{scheme} encode_reference of the old values of the probe sample"),
            PerLayer(f"coding.{s}.encode_s", "s", "lower", moves_t,
                     f"{scheme} encode_against_stored of the probe sample"),
            PerLayer(f"coding.{s}.decode_s", "s", "lower", moves_t,
                     f"{scheme} decode_states of the probe sample"),
        ]
        if scheme in COMPRESSING_SCHEMES:
            out.append(PerLayer(f"coding.{s}.encoded_ratio", "ratio", "higher", moves_t,
                                f"{scheme} lines actually encoded / lines attempted"))
    out += [
        PerLayer("core.energy_s", "s", "lower", _m(*(("wall_s", w) for w in WORKLOADS)),
                 "EnergyModel.cell_write_energy over the workload's schemes on the probe sample"),
        PerLayer("core.disturbance_s", "s", "lower", _m(*(("wall_s", w) for w in WORKLOADS)),
                 "DisturbanceModel.expected_errors over the workload's schemes"),
        PerLayer("core.disturbance_sampled_s", "s", "lower", _m(("wall_s", _IS)),
                 "DisturbanceModel.sample_errors over the workload's schemes"),
        PerLayer("evaluation.runner.metrics_s", "s", "lower", _m(*(("wall_s", w) for w in WORKLOADS)),
                 "metrics_from_encoded over the workload's schemes on the probe sample"),
        PerLayer("evaluation.runner.metrics_share", "ratio", "lower",
                 _m(*(("wall_s", w) for w in WORKLOADS)),
                 "metrics time / (metrics + encode_batch) time over the workload's schemes"),
        PerLayer("evaluation.parallel.pool_start_s", "s", "lower",
                 _m(("setup_s", _GP), ("setup_s", _IS)),
                 "median time to start and warm the worker pool during set-up"),
        PerLayer("evaluation.parallel.map_s", "s", "lower",
                 _m(("wall_s", _GP), ("wall_s", _IS)),
                 "wall time of ParallelRunner.map over the workload's work units"),
        PerLayer("evaluation.parallel.compute_s", "s", "lower",
                 _m(("wall_s", _GP), ("wall_s", _IS)),
                 "serial evaluate_trace time of the same work units"),
        PerLayer("evaluation.parallel.efficiency", "ratio", "higher",
                 _m(("wall_s", _GP), ("wall_s", _IS)),
                 "compute_s / (map_s x workers)"),
        PerLayer("obs.tracing_overhead_pct", "%", "lower", _m(*(("wall_s", w) for w in WORKLOADS)),
                 "median pass time with tracing on vs off, as a percentage of off"),
    ]
    return out


PER_LAYER: Tuple[PerLayer, ...] = tuple(_per_layer())

#: Counters that read 0 on a correct, healthy run, per ``--trace`` mode:
#: printed and recorded, never ``BENCHMARK.json`` metrics.
COUNTERS: Dict[int, Tuple[Tuple[str, str], ...]] = {
    0: (
        ("ops_failed_ratio", "failed / attempted unit checks of the timed passes"),
    ),
    1: (
        ("ops_failed_ratio", "failed / attempted checks of the passes and the probes"),
        ("coding.decode_mismatches",
         "sampled encoded lines whose decode_states differs from the data written"),
        ("evaluation.parallel.tasks_retried",
         "repro.obs tasks_retried counter over the traced passes and the map probe"),
        ("evaluation.parallel.pool_rebuilds",
         "repro.obs pool_rebuilds counter over the traced passes and the map probe"),
    ),
}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


WORKLOAD_WHY = {
    "fig8_serial": "the paper's headline Figure 8 comparison, serial: coding, compression "
                   "and core do all the work and no worker pool is built",
    "granularity_pool": "Figures 11-13 WLC granularity sweep on corpus traces and a 2-worker "
                        "pool: WLC compression on every line, no flipmin/6cosets/DIN",
    "ingest_stream": "ramulator2 text trace ingested to .wtrc, mmapped back and streamed "
                     "through the pool with sampled disturbance: ingest and metrics dominate",
}
