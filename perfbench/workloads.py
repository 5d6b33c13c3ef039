"""The three benchmark workloads, each a closed loop of one caller.

Every workload is a batch job one caller submits and waits for; the next
pass starts only when the previous one returned.  A workload splits into:

* ``setup(rep_dir)`` -- builds the inputs and the pool in a fresh
  directory; ``setup_probe.py`` also times it cold, in fresh interpreters;
* ``prepare()`` -- untimed housekeeping before each timed pass;
* ``timed()`` -- the timed call(s) into the program's public API;
* ``digests(result)`` -- the pass's outputs in the pinned form (16-hex-digit
  sha256 prefixes, one per unit, in unit order);
* ``reference()`` -- the same digests from a serial, independent path, the
  oracle for seeds without pins.

The workload seed reaches only the input generators (benchmark traces and
the ramulator2 text trace); every program knob keeps its default.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.coding import FIGURE8_SCHEMES, make_scheme
from repro.core.config import GRANULARITIES_WLC, EvaluationConfig
from repro.core.metrics import WriteMetrics
from repro.evaluation import experiments as ex
from repro.evaluation.parallel import (
    ParallelRunner,
    WorkUnit,
    shared_runner,
    shutdown_shared_runners,
)
from repro.evaluation.runner import evaluate_trace
from repro.serve.results import metrics_to_payload
from repro.traces import (
    IngestChunkSource,
    ingest_trace_file,
    load_trace,
    save_trace,
    stream_ingest_to_wtrc,
)
from repro.workloads.trace import WriteTrace

from catalog import FIG8_SCHEMES, INGEST_SCHEMES, WLC_SCHEMES


@dataclass(frozen=True)
class Sizes:
    """Input sizes; pins exist only for ``FULL``."""

    label: str
    #: Write requests per benchmark-profile trace (fig8_serial, granularity_pool).
    trace_length: int
    #: Requests (reads and writes) in the ramulator2 text trace.
    ingest_requests: int
    #: Lines in the traced run's per-layer probe sample.
    probe_lines: int


FULL = Sizes("full", trace_length=500, ingest_requests=80_000, probe_lines=4096)
SMOKE = Sizes("smoke", trace_length=48, ingest_requests=3_000, probe_lines=256)

#: Workers of the pool workloads, clamped to the core count at run time.
REQUESTED_WORKERS = 2
#: Evaluation seed of the ingest workload's sampled disturbance -- a program
#: setting, not an input, so it stays fixed while the workload seed varies.
INGEST_EVAL_SEED = 2018

#: Figures 11-13 families in ``experiments``' order, as registry name prefixes.
WLC_FAMILIES = (("4cosets", "wlc+4cosets"), ("3cosets", "wlc+3cosets"), ("WLCRC", "wlcrc"))


def short_digest(payload: object) -> str:
    """First 64 bits of the sha256 of ``payload``'s canonical JSON."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def metrics_digest(metrics: WriteMetrics) -> str:
    """Digest of the raw accumulators, in the form ``ResultStore`` records them."""
    return short_digest(metrics_to_payload(metrics))


def file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()[:16]


def figure_values(metrics: WriteMetrics) -> List[Dict[str, float]]:
    """The Figure 11/12/13 values ``experiments`` derives from one metric total."""
    return [
        {"blk": metrics.avg_data_energy_pj, "aux": metrics.avg_aux_energy_pj,
         "total": metrics.avg_energy_pj},
        {"blk": metrics.avg_updated_data_cells, "aux": metrics.avg_updated_aux_cells,
         "total": metrics.avg_updated_cells},
        {"total": metrics.avg_disturbance_errors},
    ]


def write_ramulator_trace(path: Path, n_requests: int, seed: int) -> int:
    """Write a seeded ramulator2 ``R|W 0xADDR 0xSIZE`` trace; returns its line count.

    Requests mix the three address patterns of the ramulator2 and tracehm
    trace generators: a *stream* of consecutive 64-byte lines wrapping in a
    small region (so lines are rewritten and value chains form), *random*
    unaligned accesses of 64/128/256 bytes (so accesses straddle lines), and
    *consecutive* variable-size accesses.  Half the requests are writes.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.choice(3, size=n_requests, p=(0.4, 0.3, 0.3))
    is_write = rng.random(n_requests) < 0.5
    sizes = rng.choice((64, 128, 256), size=n_requests, p=(0.6, 0.25, 0.15))
    sizes[pattern == 0] = 64
    addr = np.empty(n_requests, dtype=np.int64)
    stream = pattern == 0
    addr[stream] = 0x1000_0000 + (np.arange(int(stream.sum())) * 64) % 0x4_0000
    random = pattern == 1
    addr[random] = 0x2000_0000 + rng.integers(0, 0x20_0000, size=int(random.sum()))
    consecutive = pattern == 2
    steps = sizes[consecutive]
    addr[consecutive] = 0x3000_0000 + (np.cumsum(steps) - steps) % 0x8_0000
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(
            f"{'W' if w else 'R'} 0x{a:X} 0x{s:X}\n"
            for w, a, s in zip(is_write.tolist(), addr.tolist(), sizes.tolist())
        )
    return n_requests


class Context:
    """What every workload needs from the run: seed, sizes, paths, tracing."""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.tracer = tracer

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer is not None else nullcontext()


class Workload:
    name = ""
    #: Schemes whose encode/metrics cost this workload's passes pay.
    schemes: Sequence[str] = ()
    #: Pool size the workload asks for; it runs on at most ``os.cpu_count()``.
    requested_workers = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.workers = min(self.requested_workers, os.cpu_count() or 1)
        self.lines_per_pass = 0
        self._encoders: Dict[str, object] = {}

    def encoder(self, scheme: str):
        """One encoder per scheme and run (DIN takes ~0.2 s to build)."""
        if scheme not in self._encoders:
            self._encoders[scheme] = make_scheme(scheme)
        return self._encoders[scheme]

    def setup(self, rep_dir: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each timed pass."""

    def timed(self):
        raise NotImplementedError

    def digests(self, result) -> List[str]:
        raise NotImplementedError

    def reference(self) -> List[str]:
        return self.unit_digests([
            evaluate_trace(u.encoder, u.trace, u.config, unit_index=i)
            for i, u in enumerate(self.units())
        ])

    def runner(self) -> ParallelRunner:
        return shared_runner(self.workers)

    def units(self) -> List[WorkUnit]:
        """The work units of one pass, for the traced map/compute probe."""
        raise NotImplementedError

    def unit_digests(self, metrics: Sequence[WriteMetrics]) -> List[str]:
        """Pinned-form digests of ``units()`` evaluated to ``metrics``."""
        return [metrics_digest(m) for m in metrics]

    def probe_sample(self) -> WriteTrace:
        raise NotImplementedError

    def close(self) -> None:
        shutdown_shared_runners()

    @staticmethod
    def _warm_pool(runner: ParallelRunner, rep_dir: Path) -> None:
        """Start the workers: two one-chunk units make two shards, so the pool spins up.

        The units stream from a two-line text trace, so the warm-up takes the
        streaming path and exports nothing to shared memory.
        """
        tiny = rep_dir / "warm.trace"
        tiny.write_text("W 0x0 0x40\nW 0x40 0x40\n", encoding="ascii")
        unit = WorkUnit("warm", make_scheme("baseline"), IngestChunkSource(tiny))
        runner.map([unit, unit])


class Fig8Serial(Workload):
    """``evaluate_all_schemes``: 8 Figure-8 schemes x 12 profiles, ``n_jobs=1``."""

    name = "fig8_serial"
    schemes = FIG8_SCHEMES

    def setup(self, rep_dir: Path) -> None:
        self.config = ex.ExperimentConfig(
            trace_length=self.ctx.sizes.trace_length, seed=self.ctx.seed, n_jobs=1
        )
        ex.clear_cache()
        with self.ctx.span("workloads.generate"):
            self.traces = ex.benchmark_traces(self.config)
        with self.ctx.span("evaluation.parallel.pool_start"):
            shared_runner(1)
        self.lines_per_pass = len(FIGURE8_SCHEMES) * sum(len(t) for t in self.traces.values())

    def prepare(self) -> None:
        # ``experiments`` memoises per process; drop the memo so the pass really
        # evaluates, and regenerate the traces here, untimed (~0.03 s).
        ex.clear_cache()
        self.traces = ex.benchmark_traces(self.config)

    def timed(self):
        return ex.evaluate_all_schemes(self.config)

    def digests(self, result) -> List[str]:
        return [metrics_digest(per_bench[bench])
                for per_bench in result.values() for bench in self.config.benchmarks]

    def units(self) -> List[WorkUnit]:
        return [
            WorkUnit((scheme, bench), self.encoder(scheme), self.traces[bench],
                     self.config.evaluation)
            for scheme in FIGURE8_SCHEMES for bench in self.config.benchmarks
        ]

    def probe_sample(self) -> WriteTrace:
        return _profile_sample(self.traces, self.ctx.sizes.probe_lines)

    def figure8_check(self, result) -> Dict[str, Dict[str, float]]:
        """``experiments.figure8``, recomputed from scratch, must agree with ``result``.

        The ``experiments`` memo still holds ``result``, so it is dropped first:
        Figure 8 then regenerates its traces and re-evaluates every unit.
        """
        ex.clear_cache()
        rows = ex.figure8(self.config)
        for scheme, per_bench in result.items():
            mine = [per_bench[b].avg_energy_pj for b in self.config.benchmarks]
            if [rows[scheme][b] for b in self.config.benchmarks] != mine:
                raise AssertionError(f"figure8 row {scheme} disagrees with its units")
        return rows


class GranularityPool(Workload):
    """``figure11`` (feeding Figures 12-13) on corpus traces and a persistent pool."""

    name = "granularity_pool"
    schemes = WLC_SCHEMES
    requested_workers = REQUESTED_WORKERS

    def setup(self, rep_dir: Path) -> None:
        self.config = ex.ExperimentConfig(
            trace_length=self.ctx.sizes.trace_length, seed=self.ctx.seed,
            n_jobs=self.workers, trace_dir=str(rep_dir / "corpus"),
        )
        ex.clear_cache()
        shutdown_shared_runners()
        with self.ctx.span("traces.corpus_build"):
            self.traces = ex.benchmark_traces(self.config)
        with self.ctx.span("evaluation.parallel.pool_start"):
            self._warm_pool(shared_runner(self.workers), rep_dir)
        self.lines_per_pass = len(self.schemes) * sum(len(t) for t in self.traces.values())

    def prepare(self) -> None:
        ex.clear_cache()
        self.traces = ex.benchmark_traces(self.config)  # corpus hit: mmap only

    def timed(self):
        return ex.figure11(self.config)

    def digests(self, result) -> List[str]:
        fig12, fig13 = ex.figure12(self.config), ex.figure13(self.config)  # cached
        return [
            short_digest([result[label][g], fig12[label][g], fig13[label][g]])
            for label, _ in WLC_FAMILIES for g in GRANULARITIES_WLC
        ]

    def units(self) -> List[WorkUnit]:
        return [
            WorkUnit((label, g), self.encoder(f"{prefix}-{g}"), trace, self.config.evaluation)
            for label, prefix in WLC_FAMILIES for g in GRANULARITIES_WLC
            for trace in self.traces.values()
        ]

    def unit_digests(self, metrics: Sequence[WriteMetrics]) -> List[str]:
        reduced: Dict[object, WriteMetrics] = {}
        for unit, m in zip(self.units(), metrics):
            reduced.setdefault(unit.key, WriteMetrics()).merge(m)
        return [short_digest(figure_values(m)) for m in reduced.values()]

    def probe_sample(self) -> WriteTrace:
        return _profile_sample(self.traces, self.ctx.sizes.probe_lines)


class IngestStream(Workload):
    """Ingest a ramulator2 text trace, mmap it back, stream both through the pool."""

    name = "ingest_stream"
    schemes = INGEST_SCHEMES
    requested_workers = REQUESTED_WORKERS
    _runner = None

    def setup(self, rep_dir: Path) -> None:
        self.dir = rep_dir
        self.text = rep_dir / "mixed.trace"
        self.wtrc = rep_dir / "mixed.wtrc"
        with self.ctx.span("traces.text_generate"):
            write_ramulator_trace(self.text, self.ctx.sizes.ingest_requests, self.ctx.seed)
        self.config = EvaluationConfig(seed=INGEST_EVAL_SEED, sample_disturbance=True)
        self.close()
        self.trace = None
        with self.ctx.span("evaluation.parallel.pool_start"):
            self._runner = ParallelRunner(self.workers, persistent=True)
            self._warm_pool(self._runner, rep_dir)

    def timed(self):
        path = stream_ingest_to_wtrc(self.text, self.wtrc)
        self.trace = load_trace(path)
        metrics = self._runner.map(self.units())
        self.lines_per_pass = sum(m.requests for m in metrics)
        return path, metrics

    def digests(self, result) -> List[str]:
        path, metrics = result
        return [file_digest(path)] + self.unit_digests(metrics)

    def runner(self) -> ParallelRunner:
        return self._runner

    def units(self) -> List[WorkUnit]:
        return [
            WorkUnit("baseline", self.encoder("baseline"), IngestChunkSource(self.text),
                     self.config),
            WorkUnit("wlcrc-16", self.encoder("wlcrc-16"), self.trace, self.config),
        ]

    def reference(self) -> List[str]:
        # The materialising ingest path, saved with save_trace, must give
        # the streamed file byte for byte; the units evaluate serially on it.
        materialised = ingest_trace_file(self.text)
        ref_path = save_trace(materialised, self.dir / "reference.wtrc")
        return [file_digest(ref_path)] + self.unit_digests([
            evaluate_trace(self.encoder(scheme), materialised, self.config, unit_index=i)
            for i, scheme in enumerate(self.schemes)
        ])

    def probe_sample(self) -> WriteTrace:
        return self.trace[: self.ctx.sizes.probe_lines]

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
        super().close()


def _profile_sample(traces: Dict[str, WriteTrace], n_lines: int) -> WriteTrace:
    """The first ``n_lines / 12`` lines of every profile trace, concatenated."""
    per_trace = -(-n_lines // len(traces))
    return WriteTrace.concat([trace[:per_trace] for trace in traces.values()])


WORKLOADS = {cls.name: cls for cls in (Fig8Serial, GranularityPool, IngestStream)}


def load_pins(path: Path) -> Dict[str, object]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pinned(doc: Dict[str, object], workload: str, seed: int, sizes: Sizes) -> Optional[List[str]]:
    """The pinned digests for this run, or ``None`` when the sizes have none."""
    if doc.get("sizes") != asdict(sizes):
        return None
    entry = doc["pins"].get(workload, {}).get(str(seed))
    return entry.split() if entry else None
