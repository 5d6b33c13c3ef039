"""Benchmark registry: metadata and discovery of the ``bench_*`` figure modules.

Every module under ``benchmarks/`` that reproduces one figure or table of the
paper declares a module-level ``BENCHMARK = BenchSpec(...)`` describing what
it regenerates: the figure id, a relative cost (measured seconds at the
default trace length, used by the cost-balanced shard partitioning), the
environment knobs it reads, the artifacts it writes under
``benchmarks/results/``, and the perf-regression gates that ``repro bench
compare`` enforces against ``benchmarks/baselines/``.

:func:`discover` imports each ``bench_*.py`` file of a benchmark directory,
validates its spec, and returns the registry that the shard partitioner, the
in-process runner, the manifest merge, and the regression gate all share.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Tuple

from ..core.errors import BenchError

#: Module-level attribute every bench module must define.
SPEC_ATTRIBUTE = "BENCHMARK"

#: Prefix of both the module files and the benchmark functions inside them.
BENCH_PREFIX = "bench_"


@dataclass(frozen=True)
class Gate:
    """One perf-regression gate: a metric of a ``BENCH_*.json`` artifact.

    ``metric`` is a dotted path into the artifact's JSON payload (e.g.
    ``"per_chunk_ipc_bytes.mmap"``).  ``direction`` says which way is good:
    ``"lower"`` metrics (peak bytes, wall clock) fail when the current value
    exceeds ``baseline * (1 + tolerance_pct / 100)``; ``"higher"`` metrics
    (throughput, reduction ratios) fail when the current value drops below
    ``baseline * (1 - tolerance_pct / 100)``.  ``context`` lists top-level
    payload keys that must match between the run and the baseline for the
    comparison to be meaningful (e.g. the input trace length); on a mismatch
    the gate is skipped with a warning instead of comparing apples to pears.
    """

    artifact: str
    metric: str
    direction: str
    tolerance_pct: float
    context: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise BenchError(
                f"gate {self.metric!r}: direction must be 'lower' or 'higher', "
                f"not {self.direction!r}"
            )
        if self.tolerance_pct < 0:
            raise BenchError(f"gate {self.metric!r}: tolerance_pct must be >= 0")


@dataclass(frozen=True)
class BenchSpec:
    """Metadata a ``bench_*`` module declares about itself.

    ``artifacts`` are deterministic outputs (regenerated tables): given the
    same trace-generation config they are byte-identical on every machine,
    so the merged ``BENCH_manifest.json`` records their SHA-256.
    ``perf_artifacts`` carry wall-clock or peak-memory measurements; they are
    copied by ``bench merge`` but never checksummed.  ``group`` co-schedules
    benches that share the in-process evaluation cache (e.g. Figures 8-10
    read different metrics of one evaluation) into the same shard; it
    defaults to the bench's own name.  ``cost`` is the measured standalone
    runtime in seconds at the default trace length -- only the relative
    magnitudes matter, they steer the greedy bin-packing.
    """

    figure: str
    title: str
    cost: float
    artifacts: Tuple[str, ...] = ()
    perf_artifacts: Tuple[str, ...] = ()
    env: Tuple[str, ...] = ()
    gates: Tuple[Gate, ...] = ()
    group: str = ""
    # Filled in by discovery:
    name: str = ""
    module: str = ""

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise BenchError(f"bench {self.figure!r}: cost must be positive")
        overlap = set(self.artifacts) & set(self.perf_artifacts)
        if overlap:
            raise BenchError(
                f"bench {self.figure!r}: {', '.join(sorted(overlap))} listed as "
                "both a deterministic artifact and a perf artifact"
            )
        for gate in self.gates:
            if gate.artifact not in self.artifacts + self.perf_artifacts:
                raise BenchError(
                    f"bench {self.figure!r}: gate artifact {gate.artifact!r} "
                    "is not a declared artifact"
                )

    @property
    def all_artifacts(self) -> Tuple[str, ...]:
        """Every file this bench writes under the results directory."""
        return self.artifacts + self.perf_artifacts


@dataclass(frozen=True)
class DiscoveredBench:
    """A registered bench module: its spec plus the imported callables."""

    spec: BenchSpec
    path: Path
    functions: Tuple[Tuple[str, Callable], ...] = field(repr=False)

    @property
    def name(self) -> str:
        return self.spec.name


def default_bench_dir() -> Path:
    """The repository's ``benchmarks/`` directory (cwd fallback)."""
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "benchmarks"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "benchmarks"


#: Path -> module name of the version currently in ``sys.modules``; a
#: re-import of an edited file evicts its predecessor instead of leaking one
#: superseded module object per file version.
_MODULE_NAMES: Dict[str, str] = {}


def _import_bench_module(path: Path) -> ModuleType:
    """Import one ``bench_*.py`` file under a collision-free module name.

    The name folds in a digest of the absolute path and the file's current
    size/mtime, so equally named modules from different benchmark
    directories (the real harness and test fixtures) coexist in
    ``sys.modules``, unchanged files are reused across re-discoveries, and
    an edited file is re-imported instead of served stale.
    """
    stat = path.stat()
    identity = f"{path}:{stat.st_size}:{stat.st_mtime_ns}"
    digest = hashlib.sha256(identity.encode()).hexdigest()[:12]
    module_name = f"repro_bench_{digest}_{path.stem}"
    cached = sys.modules.get(module_name)
    if cached is not None:
        return cached
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib guard
        raise BenchError(f"cannot import benchmark module {path}")
    module = importlib.util.module_from_spec(spec)
    # Let bench modules resolve sibling imports (e.g. a local conftest).
    sys.path.insert(0, str(path.parent))
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(module_name, None)
        raise
    finally:
        try:
            sys.path.remove(str(path.parent))
        except ValueError:  # pragma: no cover - somebody else removed it
            pass
    superseded = _MODULE_NAMES.get(str(path))
    if superseded is not None and superseded != module_name:
        sys.modules.pop(superseded, None)
    _MODULE_NAMES[str(path)] = module_name
    return module


def discover(bench_dir: Path | str | None = None) -> Dict[str, DiscoveredBench]:
    """Import every ``bench_*`` module of ``bench_dir`` and build the registry.

    Returns ``{name: DiscoveredBench}`` ordered by name.  A module without a
    ``BENCHMARK`` spec, without ``bench_*`` functions, or redeclaring an
    artifact already claimed by another module is a :class:`BenchError` --
    the merge step relies on every artifact having exactly one producer.
    """
    directory = Path(bench_dir) if bench_dir is not None else default_bench_dir()
    directory = directory.resolve()
    if not directory.is_dir():
        raise BenchError(f"benchmark directory not found: {directory}")
    paths = sorted(directory.glob(f"{BENCH_PREFIX}*.py"))
    if not paths:
        raise BenchError(f"no {BENCH_PREFIX}*.py modules under {directory}")

    registry: Dict[str, DiscoveredBench] = {}
    artifact_owners: Dict[str, str] = {}
    for path in paths:
        module = _import_bench_module(path)
        spec = getattr(module, SPEC_ATTRIBUTE, None)
        if not isinstance(spec, BenchSpec):
            raise BenchError(f"{path.name} does not declare {SPEC_ATTRIBUTE} = BenchSpec(...)")
        name = path.stem[len(BENCH_PREFIX) :]
        spec = replace(
            spec,
            name=name,
            module=path.name,
            group=spec.group or name,
        )
        functions = tuple(
            (attr, value)
            for attr, value in vars(module).items()
            if attr.startswith(BENCH_PREFIX) and callable(value)
        )
        if not functions:
            raise BenchError(f"{path.name} defines no {BENCH_PREFIX}* functions")
        for artifact in spec.all_artifacts:
            owner = artifact_owners.setdefault(artifact, name)
            if owner != name:
                raise BenchError(
                    f"artifact {artifact!r} is declared by both "
                    f"{owner!r} and {name!r}"
                )
        registry[name] = DiscoveredBench(spec=spec, path=path, functions=functions)
    return dict(sorted(registry.items()))
