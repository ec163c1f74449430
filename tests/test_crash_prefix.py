"""Differential net for shared crash-point prefixes.

:func:`repro.harness.campaign.execute_crash_point` keeps one live prefix
machine per process, advances it from crash cycle to crash cycle and
forks a child per point.  Every outcome must equal the one a fresh
machine per point gives with its crash scheduled before the run
(``System.crash_at``), a path that never pauses, whatever order the
points come in.  The pause itself must equal that scheduled crash.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

import repro.harness.campaign as campaign_mod
from repro.common.errors import SimulationError, WorkloadError
from repro.config import Design
from repro.harness.campaign import (
    Campaign,
    CampaignError,
    CrashOutcome,
    CrashSpec,
    CrashSweepResult,
    crash_grid,
    execute_crash_point,
    release_prefix,
)
from repro.harness.testbed import (
    CRASH_MAX_CYCLES,
    advance,
    build_prefix,
    crash_run,
)
from repro.runtime.system import System

#: Past every workload's completion on the scaled-down machine.
PAST_COMPLETION = 25_000_000

#: The grid slice that the order, seed and pool cases run on.
SUBSET = dict(designs=[Design.ATOM, Design.REDO],
              workloads=["queue", "sps"], seeds=(7, 107))


def reference(spec: CrashSpec) -> CrashOutcome:
    """The unshared path: a fresh machine with its crash scheduled."""
    try:
        system, workload = build_prefix(
            spec.workload, spec.design, seed=spec.seed,
            entry_bytes=spec.entry_bytes, threads=spec.threads,
            txns_per_thread=spec.txns_per_thread,
            initial_items=spec.initial_items, num_cores=spec.num_cores,
            **spec.workload_kw,
        )
        system.crash_at(spec.crash_cycle)
        system.run(max_cycles=CRASH_MAX_CYCLES)
        if not system.crashed:
            # Every thread finished first: cut power where it stopped.
            system.crash()
        report = system.recover()
        workload.verify_durable()
    except (WorkloadError, SimulationError) as exc:
        return CrashOutcome(spec=spec, ok=False,
                            error=f"{type(exc).__name__}: {exc}")
    outcome = CrashOutcome(
        spec=spec, ok=True, commits=workload.commits,
        updates_rolled_back=report.updates_rolled_back,
        recovery_cost=report.cost.to_dict(),
    )
    system.image.recycle()
    return outcome


@pytest.fixture(scope="module")
def refs():
    """Reference outcomes, computed once per spec for the module."""
    memo: dict[str, CrashOutcome] = {}

    def outcomes(specs: list[CrashSpec]) -> list[CrashOutcome]:
        for spec in specs:
            if repr(spec) not in memo:
                memo[repr(spec)] = reference(spec)
        return [memo[repr(spec)] for spec in specs]

    return outcomes


def direct(specs: list[CrashSpec]) -> list[CrashOutcome]:
    """The shared path, one call per point in exactly the given order."""
    try:
        return [execute_crash_point(spec) for spec in specs]
    finally:
        release_prefix()


def assert_same(shared: list[CrashOutcome], ref: list[CrashOutcome]):
    assert (CrashSweepResult(shared).to_json()
            == CrashSweepResult(ref).to_json())
    assert ([dataclasses.asdict(o) for o in shared]
            == [dataclasses.asdict(o) for o in ref])


def finish_cycle(spec: CrashSpec) -> int:
    """Cycle at which ``spec``'s machine finishes when never crashed."""
    system, _, _ = crash_run(spec.workload, spec.design, None,
                             seed=spec.seed)
    system.image.recycle()
    return system.engine.now


class TestSharedPrefixMatchesReference:
    def test_default_grid(self, refs):
        specs = crash_grid()
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))

    def test_multi_seed_grid(self, refs):
        specs = crash_grid(**SUBSET)
        assert [s.seed for s in specs[:2]] == [7, 107]  # seeds innermost
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))

    def test_shuffled_grid(self, refs):
        specs = crash_grid(**SUBSET)
        random.Random(3).shuffle(specs)
        # Through the campaign: grouped for dispatch, returned in
        # submission order.
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))
        # Point by point: crash cycles go backwards, so prefixes are
        # rebuilt as often as they are shared.
        assert_same(direct(specs), refs(specs))

    def test_repeated_crash_cycle(self, refs):
        specs = [CrashSpec(design=design, workload="rbtree",
                           crash_cycle=cycle)
                 for design in (Design.ATOM, Design.REDO)
                 for cycle in (6_000, 6_000, 10_000, 10_000, 6_000)]
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))
        assert_same(direct(specs), refs(specs))

    def test_crash_cycle_past_completion(self, refs):
        base = CrashSpec(design=Design.ATOM_OPT, workload="hash",
                         crash_cycle=0)
        finish = finish_cycle(base)
        assert finish < PAST_COMPLETION
        # A finished prefix serves later cycles without advancing, but
        # never its own finish cycle: a crash scheduled there fires
        # ahead of the events that finished the run.
        cycles = [PAST_COMPLETION, PAST_COMPLETION + 1, finish,
                  finish + 1, finish - 1, PAST_COMPLETION, 12_000]
        specs = [dataclasses.replace(base, crash_cycle=c) for c in cycles]
        assert_same(direct(specs), refs(specs))
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))

    def test_run_raising_simulation_error(self, monkeypatch):
        hook = System._commit_hook

        def failing_hook(self, core_id, info):
            if self.engine.now >= 8_000:
                raise SimulationError("injected model failure")
            hook(self, core_id, info)

        monkeypatch.setattr(System, "_commit_hook", failing_hook)
        specs = [CrashSpec(design=Design.ATOM, workload="hash",
                           crash_cycle=cycle)
                 for cycle in (4_000, 12_000, 20_000, 30_000, 6_000)]
        ref = [reference(s) for s in specs]
        assert any(o.ok for o in ref)
        assert any("injected model failure" in o.error for o in ref)
        assert_same(direct(specs), ref)
        with Campaign(jobs=1) as campaign:
            assert_same(campaign.run_crash(specs), ref)

    def test_pool_jobs_2(self, refs):
        specs = crash_grid(**dict(SUBSET, seeds=(7,)))
        with Campaign(jobs=2) as campaign:
            assert_same(campaign.run_crash(specs), refs(specs))

    def test_campaign_holds_no_prefix(self):
        spec = CrashSpec(design=Design.ATOM, workload="hash",
                         crash_cycle=6_000)
        execute_crash_point(spec)
        assert campaign_mod._held is not None
        with Campaign(jobs=1) as campaign:
            campaign.run_crash([dataclasses.replace(spec,
                                                    crash_cycle=10_000)])
        assert campaign_mod._held is None


class TestPauseMatchesScheduledCrash:
    """The pause that ``crash_run`` and the shared path advance with
    equals a crash scheduled before the run, including at cycles that
    events queued during build or an earlier advance share."""

    @pytest.mark.parametrize("design", [Design.ATOM_OPT, Design.REDO])
    @pytest.mark.parametrize("cycle", [0, 1, 50, 2_000, 10_000])
    def test_same_durable_image(self, design, cycle):
        paused, workload, report = crash_run("queue", design, cycle)
        scheduled, sched_workload = build_prefix("queue", design)
        scheduled.crash_at(cycle)
        scheduled.run(max_cycles=30_000_000)
        assert scheduled.crashed
        sched_report = scheduled.recover()
        sched_workload.verify_durable()
        assert paused.engine.now == scheduled.engine.now == cycle
        assert (paused.engine.events_dispatched
                == scheduled.engine.events_dispatched)
        assert workload.commits == sched_workload.commits
        assert report.cost.to_dict() == sched_report.cost.to_dict()
        assert (paused.image.durable_digest()
                == scheduled.image.durable_digest())
        paused.image.recycle()
        scheduled.image.recycle()

    @pytest.mark.parametrize("design", [Design.ATOM, Design.REDO])
    def test_consecutive_pauses(self, design):
        # One cycle apart, most pauses land on a cycle that already has
        # events queued by the previous advance; a crash scheduled
        # before the run fires ahead of all of them, so must the pause.
        paused, _ = build_prefix("hash", design)
        for n, cycle in enumerate(range(1_990, 2_030)):
            assert advance(paused, cycle)
            scheduled, _ = build_prefix("hash", design)
            scheduled.crash_at(cycle)
            scheduled.run(max_cycles=CRASH_MAX_CYCLES)
            assert paused.engine.now == scheduled.engine.now == cycle
            # Each earlier pause was one dispatched event of its own.
            assert (paused.engine.events_dispatched - n
                    == scheduled.engine.events_dispatched)
            scheduled.image.recycle()
        paused.image.recycle()


class TestChildDiscipline:
    SPEC = CrashSpec(design=Design.ATOM, workload="hash", crash_cycle=6_000)

    def test_dead_child_raises(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_check_point",
                            lambda system, workload: os._exit(3))
        with pytest.raises(CampaignError, match="exit code 3"):
            direct([self.SPEC])

    def test_child_exception_raises(self, monkeypatch):
        def boom(system, workload):
            raise RuntimeError("child blew up")

        monkeypatch.setattr(campaign_mod, "_check_point", boom)
        with pytest.raises(CampaignError, match="child blew up"):
            direct([self.SPEC])

    def test_child_skips_atexit(self, monkeypatch, tmp_path):
        import atexit

        marker = tmp_path / "atexit-ran"
        check = campaign_mod._check_point

        def registering(system, workload):
            atexit.register(marker.write_text, "ran")
            return check(system, workload)

        monkeypatch.setattr(campaign_mod, "_check_point", registering)
        [outcome] = direct([self.SPEC])
        assert outcome == reference(self.SPEC)
        assert not marker.exists()

    def test_parent_machine_survives_the_child(self):
        specs = [dataclasses.replace(self.SPEC, crash_cycle=c)
                 for c in (6_000, 10_000)]
        try:
            first = execute_crash_point(specs[0])
            held = campaign_mod._held
            assert held is not None and not held.system.crashed
            assert held.system.engine.now == 6_000
            second = execute_crash_point(specs[1])
            assert campaign_mod._held is held  # advanced, not rebuilt
        finally:
            release_prefix()
        assert campaign_mod._held is None
        assert [first, second] == [reference(s) for s in specs]
