"""Unit tests of the fault-plan grammar and the deterministic injector."""

import os

import pytest

from repro import faults
from repro.faults import (
    DEFAULT_HANG_S,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedTransportError,
    InjectedWorkerCrash,
    TransientError,
)
from repro.faults.plan import KIND_SITES


class TestGrammar:
    def test_parses_the_docstring_example(self):
        plan = FaultPlan.parse("worker-crash@task:7,worker-hang@task:12:30s,attach-fail@attach:2")
        assert plan.specs == (
            FaultSpec("worker-crash", "task", 7),
            FaultSpec("worker-hang", "task", 12, duration_s=30.0),
            FaultSpec("attach-fail", "attach", 2),
        )

    @pytest.mark.parametrize(
        "text, duration_s",
        [("250ms", 0.25), ("30s", 30.0), ("1.5", 1.5), ("0s", 0.0)],
    )
    def test_duration_units(self, text, duration_s):
        plan = FaultPlan.parse(f"worker-hang@task:1:{text}")
        assert plan.specs[0].duration_s == duration_s

    def test_hang_defaults_to_thirty_seconds(self):
        plan = FaultPlan.parse("worker-hang@task:2")
        assert plan.specs[0].duration_s == DEFAULT_HANG_S

    def test_render_round_trips(self):
        text = "worker-crash@task:7,worker-hang@task:12:0.25s,attach-fail@attach:1"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.render()) == plan

    def test_blank_entries_and_whitespace_are_tolerated(self):
        plan = FaultPlan.parse(" worker-crash@task:1 , ,attach-fail@attach:2,")
        assert [spec.kind for spec in plan.specs] == ["worker-crash", "attach-fail"]

    @pytest.mark.parametrize(
        "text",
        [
            "explode@task:1",            # unknown kind
            "worker-crash@put:1",        # site not valid for the kind
            "worker-crash@task",         # no ordinal
            "worker-crash@task:zero",    # non-integer ordinal
            "worker-crash@task:0",       # ordinals are 1-based
            "worker-crash@task:1:5s",    # only hangs take a duration
            "worker-hang@task:1:soon",   # unparseable duration
            "worker-hang@task:1:-2s",    # negative duration
            "worker-crash",              # no site at all
            "conn-drop@evaluate:1",      # unknown kind
            "worker-crash@drain:1",      # unknown site
            "conn-drop@task:1",          # unknown kind at a live site
            "attach-fail@evaluate:1",    # unknown site for a live kind
            "worker-hang@drain:1:1s",    # unknown site, even with a duration
            "store-corrupt@put:1",       # retired kind at its retired site
        ],
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    @pytest.mark.parametrize(
        "kind, site",
        [(kind, site) for kind, sites in KIND_SITES.items() for site in sites],
    )
    def test_every_declared_site_parses(self, kind, site):
        """Every site the table declares is plantable for its kind."""
        plan = FaultPlan.parse(f"{kind}@{site}:2")
        assert (plan.specs[0].kind, plan.specs[0].site, plan.specs[0].nth) == (kind, site, 2)
        assert FaultPlan.parse(plan.render()) == plan

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "attach-fail@attach:1")
        assert FaultPlan.from_env().specs[0].kind == "attach-fail"


class TestInjector:
    def test_fires_at_the_exact_ordinal_and_only_once(self):
        injector = FaultInjector(FaultPlan.parse("worker-crash@task:3"))
        assert injector.take("task") is None
        assert injector.take("task") is None
        action = injector.take("task")
        assert action == FaultAction("worker-crash", 0.0, parent_pid=os.getpid())
        # The spec is consumed: ordinal 3 of a fresh counter cycle never
        # re-fires, no matter how many more invocations happen.
        assert all(injector.take("task") is None for _ in range(10))
        assert injector.pending() == ()
        assert injector.injected_counts() == {"task": 1}

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan.parse("attach-fail@attach:2"))
        assert injector.take("task") is None
        assert injector.take("attach") is None
        assert injector.take("task") is None
        assert injector.take("attach").kind == "attach-fail"

    def test_same_schedule_every_time(self):
        plan = FaultPlan.parse("worker-crash@task:2,attach-fail@attach:1")
        schedules = []
        for _ in range(3):
            injector = FaultInjector(plan)
            fired = [
                site
                for site in ("task", "attach", "task", "task")
                if injector.take(site) is not None
            ]
            schedules.append(fired)
        assert schedules == [["attach", "task"]] * 3


class TestInstallation:
    def test_install_and_clear(self):
        injector = faults.install("worker-crash@task:1")
        assert faults.active_injector() is injector
        assert faults.take("task").kind == "worker-crash"
        assert faults.injected_counts() == {"task": 1}
        faults.clear()
        assert faults.take("task") is None
        assert faults.injected_counts() == {}

    def test_env_adopted_lazily_after_clear(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "attach-fail@attach:1")
        faults.clear()
        injector = faults.active_injector()
        assert injector is not None
        assert injector.plan.specs[0].kind == "attach-fail"

    def test_explicit_none_beats_the_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "attach-fail@attach:1")
        faults.clear()
        faults.install(None)
        assert faults.active_injector() is None

    def test_install_rejects_bad_plans(self):
        with pytest.raises(FaultPlanError):
            faults.install("nonsense")


class TestExecute:
    def test_crash_inline_raises_a_retryable_error(self):
        action = FaultAction("worker-crash", parent_pid=os.getpid())
        with pytest.raises(InjectedWorkerCrash):
            faults.execute(action)
        assert issubclass(InjectedWorkerCrash, TransientError)

    def test_attach_fail_raises_transport_error(self):
        with pytest.raises(InjectedTransportError):
            faults.execute(FaultAction("attach-fail"))

    def test_hang_returns_after_its_duration(self):
        faults.execute(FaultAction("worker-hang", duration_s=0.0))
