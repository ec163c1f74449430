"""The four user jobs the benchmark drives, each through its public API.

Every job runs in one process with ``Campaign(jobs=1)`` and no result
cache, so each point is computed inline.  A job takes only a workload
seed; the benchmark generates the inputs from it and hands the program
the generated specs.  ``run`` returns a :class:`Pass` that already
applies the job's output checks.

Why each job is here, and which layers it stresses or bypasses, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import Design
from repro.faults.sweep import fault_grid, fault_sweep
from repro.harness import paper_data
from repro.harness.campaign import Campaign, crash_grid, crash_sweep
from repro.harness.experiments import ALL_BENCHMARKS, UNDO_DESIGNS
from repro.harness.report import gmean
from repro.harness.runner import RunSpec
from repro.litmus.catalog import CATALOG
from repro.litmus.explorer import LITMUS_DESIGNS, LitmusPoint, explore


@dataclass
class Pass:
    """One complete run of a job, with its output checks applied."""

    points: int
    failed: int
    #: Job-level verdicts that enter the simulated-work fingerprint.
    verdicts: list = field(default_factory=list)
    #: One line per failed check.
    errors: list = field(default_factory=list)
    #: Mean |ln(measured/paper)| of the Fig 5a gmeans (figure-regen).
    paper_logerr: float | None = None


# -- figure-regen: cold Fig 5a at scale 0.2 ----------------------------------


def fig5a_specs(seed: int) -> list[RunSpec]:
    """The 24 Fig 5a points at scale 0.2 on the 32-core Table-I machine.

    Pinned here, not taken from the experiment module, so the benchmark
    keeps measuring the same work if the experiment's defaults move.
    """
    return [
        RunSpec(design=design, workload=bench, entry_bytes=512,
                txns_per_thread=6, warmup_per_thread=2, initial_items=96,
                workload_kw={"compute_cycles": 150}, seed=seed)
        for bench in ALL_BENCHMARKS
        for design in UNDO_DESIGNS
    ]


def figure_regen(seed: int) -> Pass:
    specs = fig5a_specs(seed)
    with Campaign(jobs=1) as campaign:
        results = campaign.run(specs)
    by_point = {(r.spec.workload, r.spec.design): r for r in results}
    gmeans = {
        design.value: gmean([
            by_point[bench, design].throughput
            / by_point[bench, Design.BASE].throughput
            for bench in ALL_BENCHMARKS
        ])
        for design in UNDO_DESIGNS
    }
    paper = paper_data.FIG5_SMALL_GMEAN
    logerr = sum(abs(math.log(gmeans[k] / paper[k])) for k in paper) / len(paper)
    errors = []
    for r in results:
        # The whole measurement window must commit: every thread runs
        # its post-warm-up transactions.
        window = ((r.spec.threads or r.spec.num_cores)
                  * (r.spec.txns_per_thread - r.spec.warmup_per_thread))
        if r.txns != window or not r.throughput > 0:
            errors.append(f"{r.spec.workload}/{r.spec.design.value}: "
                          f"{r.txns} of {window} txns committed, "
                          f"throughput {r.throughput}")
    return Pass(points=len(results), failed=len(errors),
                verdicts=sorted(gmeans.items()), errors=errors,
                paper_logerr=logerr)


# -- crash-sweep: the default crash grid --------------------------------------


def crash_job(seed: int) -> Pass:
    specs = crash_grid(seeds=(seed,))
    with Campaign(jobs=1) as campaign:
        result = crash_sweep(campaign, specs)
    errors = [f"{o.spec.design.value}/{o.spec.workload}@{o.spec.crash_cycle}:"
              f" {o.error}" for o in result.failures]
    return Pass(points=len(result.outcomes), failed=len(errors),
                errors=errors)


# -- litmus-catalog: explore() over the catalog ------------------------------


def litmus_job(seed: int) -> Pass:
    with Campaign(jobs=1) as campaign:
        report = explore(campaign, tests=CATALOG, seeds=(seed,))
    bad = {id(c): c for c in report.failures}
    errors = [f"{c.test}/{c.design}/{c.fault}: FAIL" for c in bad.values()]
    if not report.detected:
        # The unlogged design is the checker's detection control: when
        # no cell detects a violation, the checker has gone blind.
        control = [c for c in report.cells if c.design == "non-atomic"]
        bad.update((id(c), c) for c in control)
        errors.append("non-atomic detection control detected nothing")
    return Pass(points=report.points_total,
                failed=sum(c.points for c in bad.values()),
                verdicts=[(c.test, c.design, c.fault, c.status)
                          for c in report.cells],
                errors=errors)


# -- faults-matrix: the default fault grid with the checksum plane -----------


def faults_job(seed: int) -> Pass:
    specs = fault_grid(checksums=True, seeds=(seed,))
    with Campaign(jobs=1) as campaign:
        result = fault_sweep(campaign, specs)
    cells = result.cells
    bad = [c for c in cells if c.status in ("FAIL", "silent")]
    return Pass(points=len(result.outcomes),
                failed=sum(c.points for c in bad),
                verdicts=[(c.design, c.workload, c.fault, c.status)
                          for c in cells],
                errors=[f"{c.design}/{c.workload}/{c.fault}: {c.status}"
                        for c in bad])


# -- warm-up: one untimed point per design ------------------------------------


def _first_per_design(points: list) -> list:
    seen: dict = {}
    for point in points:
        seen.setdefault(point.design, point)
    return list(seen.values())


def warm_up(name: str, seed: int) -> None:
    """Run one point per design so lazily built tables are filled."""
    with Campaign(jobs=1) as campaign:
        if name == "figure-regen":
            # queue is the cheapest benchmark: set-up stays short.
            campaign.run([s for s in fig5a_specs(seed)
                          if s.workload == "queue"])
        elif name == "crash-sweep":
            campaign.run_crash(_first_per_design(crash_grid(seeds=(seed,))))
        elif name == "litmus-catalog":
            test = CATALOG[0].to_dict()
            campaign.run_litmus([
                LitmusPoint(test=test, design=design, crash_cycle=None,
                            seed=seed)
                for design in LITMUS_DESIGNS
            ])
        else:
            campaign.run_faults(_first_per_design(
                fault_grid(checksums=True, seeds=(seed,))))


#: Job name -> (job function, the job's own default seed).  Pass ``k`` of
#: a benchmark run with ``--seed n`` uses workload seed
#: ``default + 1000 * n + k``, so ``--seed 0`` starts at the seed the
#: repository's own CLI uses for that job.
JOBS = {
    "figure-regen": (figure_regen, 42),
    "crash-sweep": (crash_job, 7),
    "litmus-catalog": (litmus_job, 7),
    "faults-matrix": (faults_job, 7),
}


def workload_seed(name: str, seed: int, k: int) -> int:
    return JOBS[name][1] + 1000 * seed + k
