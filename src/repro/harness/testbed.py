"""The one canonical builder for scaled-down simulated machines.

Both the unit-test suite (``tests/helpers.py``) and the benchmark
fixtures (``benchmarks/conftest.py``) import these helpers, so the
machine a test exercises and the machine a benchmark smoke-checks can
never silently drift apart.  The campaign layer's crash sweep
(:mod:`repro.harness.campaign`) drives the phases of :func:`crash_run`
as well — the same code path the crash-matrix tests use.
"""

from __future__ import annotations

from repro.config import Design, SystemConfig
from repro.runtime.system import System


def small_config(design: Design = Design.ATOM_OPT, num_cores: int = 4,
                 **kw) -> SystemConfig:
    """A 4-core scaled-down machine with invariant checking enabled."""
    cfg = SystemConfig.scaled_down(design=design, num_cores=num_cores, **kw)
    cfg.debug.check_invariants = True
    return cfg


def build_system(design: Design | SystemConfig = Design.ATOM_OPT,
                 num_cores: int = 4, **kw) -> System:
    """Build a small system ready for tests.

    Accepts either a :class:`~repro.config.Design` (a scaled-down
    machine is configured around it) or a fully-built
    :class:`~repro.config.SystemConfig`, which is used as-is —
    previously the latter was re-wrapped in ``small_config`` and
    exploded deep inside ``make_policy``.
    """
    if isinstance(design, SystemConfig):
        if kw or num_cores != 4:
            raise TypeError(
                "build_system(SystemConfig) takes no extra keywords: the "
                "config already fixes the machine"
            )
        return System(design)
    return System(small_config(design, num_cores, **kw))


def build_litmus_system(design: Design, spec, seed: int = 7):
    """Build the scaled-down machine a litmus spec asks for.

    Shared by the litmus explorer workers and the litmus tests so both
    run the spec's log-geometry overrides through one code path.
    Returns ``(system, workload)`` with the workload not yet set up.
    """
    from repro.common.errors import ConfigError
    from repro.workloads import make_workload

    cfg = small_config(design, num_cores=spec.machine_cores(), seed=seed)
    for key, value in spec.log_overrides.items():
        if not hasattr(cfg.log, key):
            raise ConfigError(f"unknown log override {key!r}")
        setattr(cfg.log, key, value)
    cfg.validate()
    system = System(cfg)
    workload = make_workload("litmus", system, program=spec, seed=seed)
    return system, workload


def run_workload_to_completion(system, workload, max_cycles=50_000_000):
    """Setup + run a workload; returns the finish cycle."""
    workload.setup()
    system.start_threads(workload.threads())
    return system.run(max_cycles=max_cycles)


#: Cycle budget of a crash run: a machine still running at this cycle is
#: cut there, whatever its crash cycle.
CRASH_MAX_CYCLES = 30_000_000


def crash_run(name: str, design: Design, crash_cycle: int | None, *,
              max_cycles: int = CRASH_MAX_CYCLES, verify: bool = True,
              storm_seed: int | None = None, **kw):
    """Run a workload, crash it, recover, and differential-check.

    Builds a scaled-down machine, runs ``threads`` worker threads, cuts
    power at ``crash_cycle`` (or after completion when ``None``), runs
    recovery, and verifies the durable image against the golden model
    replayed over exactly the committed transactions.  Raises
    :class:`~repro.common.errors.WorkloadError` on any divergence.

    The three phases are public so a caller can share one prefix among
    several crash cycles: :func:`build_prefix` (keywords are passed to
    it), :func:`advance` and :func:`crash_and_check`.  ``verify`` and
    ``storm_seed`` belong to the last.

    Returns ``(system, workload, recovery_report)``.
    """
    system, workload = build_prefix(name, design, **kw)
    advance(system, crash_cycle, max_cycles)
    report = crash_and_check(system, workload, verify=verify,
                             storm_seed=storm_seed)
    return system, workload, report


def build_prefix(name: str, design: Design, *, entry_bytes: int = 512,
                 seed: int = 7, threads: int = 4, txns_per_thread: int = 8,
                 initial_items: int = 12, num_cores: int = 4,
                 injector=None, instrument=None,
                 line_checksums: bool = False, **kw):
    """Build phase of a crash run: the machine, populated, threads started.

    ``injector`` (a :class:`repro.faults.models.FaultInjector`) turns
    the power cut into a partial failure; the fault sweep passes
    ``verify=False`` to :func:`crash_run` and applies its own per-model
    verdict instead of the unconditional differential check.

    ``instrument`` (an observability hook, e.g. ``Tracer.install``) is
    called with the built system before the workload starts.

    ``line_checksums`` enables the per-data-line checksum plane on the
    memory image (media-fault detection).

    Returns ``(system, workload)``.
    """
    from repro.workloads import make_workload

    system = build_system(design=design, num_cores=num_cores,
                          line_checksums=line_checksums)
    if instrument is not None:
        instrument(system)
    if injector is not None:
        injector.install(system)
    workload = make_workload(
        name, system, entry_bytes=entry_bytes,
        txns_per_thread=txns_per_thread, initial_items=initial_items,
        threads=threads, seed=seed, **kw,
    )
    workload.setup()
    system.start_threads(workload.threads())
    return system, workload


def advance(system, crash_cycle: int | None,
            max_cycles: int = CRASH_MAX_CYCLES) -> bool:
    """Advance phase: run the machine up to its power cut.

    Stops ahead of every event of ``crash_cycle`` (a pause, see
    :meth:`repro.runtime.system.System.run`), or when every thread has
    finished (``crash_cycle`` of ``None`` always runs to completion),
    or at ``max_cycles``.  Returns True when the machine paused at
    ``crash_cycle``; it may then be advanced again to a later cycle.
    Otherwise the machine stopped for good at ``system.engine.now``:
    advancing it again would dispatch background work that a crash at
    that cycle never sees.
    """
    system.run(max_cycles=max_cycles, pause_at=crash_cycle)
    return system.engine.paused


def crash_and_check(system, workload, *, verify: bool = True,
                    storm_seed: int | None = None):
    """Crash-and-check phase: cut power now, recover, differential-check.

    ``storm_seed`` replaces the single recovery pass with a seeded crash
    storm (:func:`repro.faults.storm.storm_recover`); the merged report
    is returned with the :class:`~repro.faults.storm.StormReport`
    attached as ``report.storm``.  ``verify=False`` skips the
    differential check.  Returns the recovery report.
    """
    system.crash()
    if storm_seed is not None:
        from repro.faults.storm import storm_recover

        storm = storm_recover(system, seed=storm_seed)
        report = storm.report
        report.storm = storm
    else:
        report = system.recover()
        report.storm = None
    if verify:
        workload.verify_durable()
    return report
