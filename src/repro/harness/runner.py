"""Single-run driver with warm-up handling.

A :class:`RunSpec` describes one (design, workload, machine) point; the
runner builds the system, pre-populates the workload, runs warm-up
transactions (caches fill, statistics then reset), measures the rest,
and returns a :class:`RunResult` with throughput and the counters the
figures need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.units import throughput_per_second
from repro.config import Design, SystemConfig
from repro.runtime.system import System
from repro.workloads import make_workload


@dataclass
class RunSpec:
    """One experiment point."""

    design: Design
    workload: str
    entry_bytes: int = 512
    num_cores: int = 32
    threads: int | None = None
    txns_per_thread: int = 16
    warmup_per_thread: int = 4
    initial_items: int = 48
    seed: int = 42
    #: NVM latency as a multiple of DRAM (Figure 8 sweeps this).
    latency_multiplier: float = 10.0
    #: Channels per memory controller (Figure 7's *-2C configs use 2).
    channels: int = 1
    #: Optional extra workload kwargs (e.g. TPC-C scale).
    workload_kw: dict = field(default_factory=dict)
    #: Overrides applied to ``cfg.log`` after building (ablation knobs
    #: such as ``collation``/``colocate`` — lets ablations run through
    #: the same campaign/cache path as every other point).
    log_overrides: dict = field(default_factory=dict)
    max_cycles: int = 500_000_000

    def with_design(self, design: Design) -> "RunSpec":
        return replace(self, design=design)

    def with_seed(self, seed: int) -> "RunSpec":
        return replace(self, seed=seed)


@dataclass
class RunResult:
    """Measured outcome of one run (post-warm-up window)."""

    spec: RunSpec
    cycles: int
    txns: int
    throughput: float
    sq_full_cycles: int
    log_entries: int
    source_logged: int
    log_writes: int
    stats: dict

    @property
    def source_log_pct(self) -> float:
        if self.log_entries == 0:
            return 0.0
        return 100.0 * self.source_logged / self.log_entries


def build_config(spec: RunSpec) -> SystemConfig:
    """Translate a RunSpec into a full Table-I machine configuration."""
    cfg = SystemConfig()
    cfg.design = spec.design
    cfg.cores.num_cores = spec.num_cores
    cfg.memory.latency_multiplier = spec.latency_multiplier
    cfg.memory.channels_per_controller = spec.channels
    cfg.log.aus_per_controller = spec.num_cores
    cfg.seed = spec.seed
    if spec.num_cores < 32:
        cfg.noc.rows = 2 if spec.num_cores % 2 == 0 else 1
    for key, value in spec.log_overrides.items():
        if not hasattr(cfg.log, key):
            raise ConfigError(f"unknown log override {key!r}")
        setattr(cfg.log, key, value)
    return cfg.validate()


def _workload_args(spec: RunSpec) -> dict:
    """The keyword arguments ``run_spec`` builds the workload with."""
    return dict(
        entry_bytes=spec.entry_bytes,
        txns_per_thread=spec.txns_per_thread,
        threads=spec.threads,
        initial_items=spec.initial_items,
        seed=spec.seed,
        **spec.workload_kw,
    )


def populate_key(spec: RunSpec) -> tuple:
    """The fields of ``spec`` that the workload's populate reads.

    The workload's name and constructor arguments, and the core count
    (the heap has one arena per core).  The design, channels, latency,
    log overrides, warm-up and cycle cap do not change the populated
    image, so points that differ only in those share one populate
    (see "Populate once" in the README).
    """
    return (spec.workload, spec.num_cores,
            sorted(_workload_args(spec).items()))


def run_spec(spec: RunSpec, *, instrument=None,
             keep_populate: bool = False) -> RunResult:
    """Execute one run and return its measurement-window results.

    ``instrument``, when given, is called with the built ``System``
    before any thread starts — the hook the observability layer uses
    to install a :class:`~repro.obs.trace.Tracer` or
    :class:`~repro.obs.sample.StatSampler` without perturbing the run.

    The populate is restored when the last point that kept one had the
    same :func:`populate_key`; ``keep_populate`` keeps this point's for
    the next, and is worth its cost only when the next point shares it.
    """
    system = System(build_config(spec))
    if instrument is not None:
        instrument(system)
    workload = make_workload(spec.workload, system, **_workload_args(spec))
    workload.setup(key=populate_key(spec), keep=keep_populate)

    threads = spec.threads or spec.num_cores
    warmup_total = spec.warmup_per_thread * threads
    window = {"commits": 0, "start_cycle": 0}
    inner = system.on_commit

    def hook(core_id: int, info) -> None:
        if inner is not None:
            inner(core_id, info)
        window["commits"] += 1
        if window["commits"] == warmup_total:
            # Warm-up done: caches stay warm, counters start clean.
            system.stats.reset()
            window["start_cycle"] = system.engine.now

    system.on_commit = hook
    system.start_threads(workload.threads())
    end = system.run(max_cycles=spec.max_cycles)

    measured_txns = window["commits"] - min(warmup_total, window["commits"])
    measured_cycles = max(1, end - window["start_cycle"])
    stats = system.stats
    log_writes = sum(
        stats.domain(f"mc{mc.mc_id}").get("log_writes")
        for mc in system.controllers
    )
    entries = int(stats.total("entries", prefix="logm"))
    if spec.design is Design.REDO:
        entries = int(stats.domain("redo").get("entries"))
    result = RunResult(
        spec=spec,
        cycles=measured_cycles,
        txns=measured_txns,
        throughput=throughput_per_second(measured_txns, measured_cycles),
        sq_full_cycles=int(stats.total("sq_full_cycles", prefix="core")),
        log_entries=entries,
        source_logged=int(stats.total("source_logged", prefix="logm")),
        log_writes=int(log_writes),
        stats=stats.as_dict(),
    )
    # The system was private to this run and the result carries every
    # extracted counter: recycle the image buffers for the next point.
    system.image.recycle()
    return result
