"""Chaos property suite: fault-injected runs recover *bit-identically*.

Every test here runs the same workload twice -- once clean and serial (the
reference), once under an installed fault plan on some ``n_jobs x backend``
combination -- and asserts exact ``WriteMetrics`` equality.  The engine's
recovery machinery (pool rebuild + resubmission, per-task transient retry,
the ``task_timeout`` watchdog) must be invisible in the results: submission
-order reduction and per-(unit, chunk) RNG streams survive any number of
restarts.

The test also asserts the fault really *fired* (``injected_counts``), so a
green run cannot mean "the chaos never happened".
"""

from pathlib import Path

import pytest

from repro import faults
from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_schemes
from repro.obs import observation
from repro.traces import IngestChunkSource, load_trace, stream_ingest_to_wtrc
from repro.workloads.generator import generate_benchmark_trace

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample_ramulator2.trace"

#: chunk_size 32 on a 128-line trace -> four shards per unit, so ordinals
#: beyond 1 exist on every matrix point and crash mid-run, not at the edges.
CONFIG = EvaluationConfig(chunk_size=32)
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)

#: The full recovery matrix the issue demands.
MATRIX = [(1, "process"), (1, "thread"), (4, "process"), (4, "thread")]


def _units(trace, config=CONFIG):
    return [
        WorkUnit(name, make_scheme(name), trace, config)
        for name in ("baseline", "wlcrc-16", "fnw")
    ]


@pytest.fixture(scope="module")
def reference(gcc_trace):
    """Clean serial results every chaos run must reproduce exactly."""
    trace = gcc_trace[:128]
    return {
        "plain": ParallelRunner(n_jobs=1).run(_units(trace)),
        "mc": ParallelRunner(n_jobs=1).run(_units(trace, MC_CONFIG)),
    }


def _chaos_run(trace, plan, n_jobs, backend, config=CONFIG, **runner_kwargs):
    faults.install(plan)
    runner = ParallelRunner(
        n_jobs=n_jobs, backend=backend, retry_backoff_s=0.001, **runner_kwargs
    )
    return runner.run(_units(trace, config))


@pytest.mark.parametrize("n_jobs, backend", MATRIX)
class TestCrashRecovery:
    def test_worker_crash_is_bit_identical(self, gcc_trace, reference, n_jobs, backend):
        result = _chaos_run(gcc_trace[:128], "worker-crash@task:2", n_jobs, backend)
        assert faults.injected_counts() == {"task": 1}
        assert result == reference["plain"]

    def test_crash_preserves_sampled_rng_streams(
        self, gcc_trace, reference, n_jobs, backend
    ):
        """Monte-Carlo disturbance draws must survive a mid-run restart."""
        result = _chaos_run(
            gcc_trace[:128], "worker-crash@task:3", n_jobs, backend, config=MC_CONFIG
        )
        assert faults.injected_counts() == {"task": 1}
        assert result == reference["mc"]

    def test_two_crashes_in_one_run(self, gcc_trace, reference, n_jobs, backend):
        result = _chaos_run(
            gcc_trace[:128], "worker-crash@task:1,worker-crash@task:4", n_jobs, backend
        )
        assert faults.injected_counts() == {"task": 2}
        assert faults.active_injector().pending() == ()
        assert result == reference["plain"]


@pytest.mark.parametrize("n_jobs, backend", MATRIX)
def test_hang_watchdog_recovers_bit_identical(gcc_trace, reference, n_jobs, backend):
    """A stalled worker trips the ``task_timeout`` watchdog; results match.

    Serially there is no watchdog -- the injected 0.4s stall just elapses
    inline -- which is exactly the contract: fault plans may slow a run
    down, never change its output.
    """
    result = _chaos_run(
        gcc_trace[:128],
        "worker-hang@task:2:0.4s",
        n_jobs,
        backend,
        task_timeout=0.15,
    )
    assert faults.injected_counts() == {"task": 1}
    assert result == reference["plain"]


def test_attach_failure_is_retried(gcc_trace, reference):
    """A transient zero-copy attach error costs a retry, not the run."""
    result = _chaos_run(gcc_trace[:128], "attach-fail@attach:1", 4, "process")
    assert faults.injected_counts() == {"attach": 1}
    assert result == reference["plain"]


def test_packed_task_recovers_bit_identical(monkeypatch):
    """Faults on packed tasks: twelve 100-line units of one encoder at
    chunk_size 256 pack two chunks per task.  The crash rebuilds the pool,
    both sites fire once, the result matches a clean run, and every
    resubmitted task -- all of its windows -- runs without a directive."""
    encoder = make_scheme("wlcrc-16")
    config = EvaluationConfig(chunk_size=256, sample_disturbance=True, seed=5)
    trace = generate_benchmark_trace("gcc", 1200, seed=7)
    units = [WorkUnit(i, encoder, trace[100 * i:100 * (i + 1)], config) for i in range(12)]
    clean = ParallelRunner(n_jobs=1).map(units)

    submitted = []
    pool_of = ParallelRunner._pool

    def recording_pool(runner):
        pool = pool_of(runner)

        class Recorder:
            def submit(self, worker, item):
                submitted.append(item)
                return pool.submit(worker, item)

        return Recorder()

    monkeypatch.setattr(ParallelRunner, "_pool", recording_pool)
    faults.install("worker-crash@task:2,attach-fail@attach:1")
    with observation() as session:
        result = ParallelRunner(n_jobs=2, retry_backoff_s=0.001).map(units)
    assert faults.injected_counts() == {"task": 1, "attach": 1}
    assert session.metrics.snapshot()["pool_rebuilds"]["value"] >= 1
    assert result == clean

    seen = set()
    resubmitted = []
    for task in submitted:
        assert len(task.windows) == 2
        assert all(window.descriptor is not None for window in task.windows)
        key = tuple((window.unit_index, window.chunk_index) for window in task.windows)
        if key in seen:
            resubmitted.append(task)
        seen.add(key)
    assert len(seen) == 6
    assert resubmitted and all(task.inject is None for task in resubmitted)
    assert {task.inject.kind for task in submitted if task.inject} == {
        "worker-crash", "attach-fail"
    }


def test_mixed_call_recovers_bit_identical(tmp_path, monkeypatch):
    """Faults on a call that streams a text trace beside a corpus-backed
    copy of the same content (992 lines, chunk_size 64: 16 descriptor
    tasks, generated first and not held back by the window of 8).  Both
    sites fire on descriptor tasks, the crash finds more than ``window`` of
    them in flight, the pool rebuilds, every resubmitted task runs without
    a directive, and the result matches the serial run."""
    encoder = make_scheme("wlcrc-16")
    config = EvaluationConfig(chunk_size=64, sample_disturbance=True, seed=5)
    units = [
        WorkUnit("streamed", encoder, IngestChunkSource(SAMPLE), config),
        WorkUnit(
            "mmap", encoder, load_trace(stream_ingest_to_wtrc(SAMPLE, tmp_path / "s.wtrc")), config
        ),
    ]
    clean = ParallelRunner(n_jobs=1).map(units)

    submitted = []
    pool_of = ParallelRunner._pool

    def recording_pool(runner):
        pool = pool_of(runner)

        class Recorder:
            def submit(self, worker, item):
                submitted.append(item)
                return pool.submit(worker, item)

        return Recorder()

    monkeypatch.setattr(ParallelRunner, "_pool", recording_pool)
    faults.install("worker-crash@task:2,attach-fail@attach:1")
    runner = ParallelRunner(n_jobs=2, retry_backoff_s=0.001)
    with observation() as session:
        result = runner.map(units)
    assert faults.injected_counts() == {"task": 1, "attach": 1}
    assert session.metrics.snapshot()["pool_rebuilds"]["value"] >= 1
    assert result == clean

    seen = set()
    resubmitted = []
    for task in submitted:
        key = tuple((window.unit_index, window.chunk_index) for window in task.windows)
        if key in seen:
            resubmitted.append(task)
        seen.add(key)
    assert len(seen) == 32
    described = [t for t in resubmitted if all(w.descriptor is not None for w in t.windows)]
    assert len(described) > 4 * runner.n_jobs  # the default window
    assert resubmitted and all(task.inject is None for task in resubmitted)
    fired = [task for task in submitted if task.inject]
    assert {task.inject.kind for task in fired} == {"worker-crash", "attach-fail"}
    assert all(w.unit_index == 1 and w.descriptor is not None for t in fired for w in t.windows)


def test_evaluate_schemes_end_to_end_under_chaos(gcc_trace):
    """The public helper recovers too (the CLI path minus argument parsing)."""
    encoders = [make_scheme("baseline"), make_scheme("wlcrc-16")]
    trace = gcc_trace[:128]
    clean = evaluate_schemes(encoders, trace, CONFIG)
    faults.install("worker-crash@task:2")
    injected = evaluate_schemes(encoders, trace, CONFIG, n_jobs=4)
    assert faults.injected_counts() == {"task": 1}
    assert injected == clean


class TestDegradationAndLimits:
    def test_unfired_specs_change_nothing(self, gcc_trace, reference):
        """An ordinal past the run's task count simply never fires."""
        result = _chaos_run(gcc_trace[:128], "worker-crash@task:999", 4, "process")
        assert faults.injected_counts() == {}
        assert faults.active_injector().pending() != ()
        assert result == reference["plain"]

    def test_serial_degradation_still_completes(self, gcc_trace, reference):
        """With a zero rebuild budget the engine degrades to serial inline
        execution -- slower, never wrong."""
        result = _chaos_run(
            gcc_trace[:128],
            "worker-crash@task:2",
            4,
            "process",
            max_pool_rebuilds=0,
        )
        assert faults.injected_counts() == {"task": 1}
        assert result == reference["plain"]

    def test_transient_retries_are_bounded(self, gcc_trace):
        """A task that keeps failing transiently exhausts ``task_retries``
        and surfaces the underlying error instead of looping forever."""
        from repro.faults import InjectedWorkerCrash

        def always_crash(value):
            raise InjectedWorkerCrash("unrecoverable by retry")

        runner = ParallelRunner(n_jobs=1, task_retries=1)
        with pytest.raises(InjectedWorkerCrash):
            runner.starmap(always_crash, [(1,)])
