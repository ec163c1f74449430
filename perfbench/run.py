"""End-to-end benchmark of the simulator's four user jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crash-sweep --seed 0 --seconds 30 --trace 0

Workloads: ``figure-regen``, ``crash-sweep``, ``litmus-catalog`` and
``faults-matrix``; the last is not in ``BENCHMARK.json`` yet (see
``perfbench/README.md``).  The job runs whole passes, each at its own
workload seed, until ``--seconds`` of normalised job time is spent.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half traced and reports the per-layer metrics,
including the tracing overhead.  Times are normalised host times (see
``calibrate.py``); the raw host figures are printed beside them.
Human-readable lines come first; the last line of standard output is
one JSON object.  The exit code is 1 when an output check fails and 2
when the program's source is missing.
"""

from __future__ import annotations

import sys
import time

sys.dont_write_bytecode = True

from calibrate import REFERENCE_MS, Calibrator, measure  # noqa: E402

# Set-up time runs from here, after one kernel timing for its scale.
SETUP_REF = measure()
START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import asdict, dataclass, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("figure-regen", "crash-sweep", "litmus-catalog", "faults-matrix")
#: Set-ups per run for ``setup_s``: this process plus fresh children.
SETUP_SAMPLES = 3
#: A tail percentile needs at least ten samples beyond it: p90 is only
#: reported when a run holds at least this many points.
P90_MIN_POINTS = 192
#: Report name for each span's self time; the residual is the timed
#: wall no span covers.
SELF_NAMES = {
    "harness.job": "harness.job_self",
    "harness.campaign": "harness.campaign_self",
    "harness.point": "harness.point_self",
    "faults.point": "faults.self",
}
RESIDUAL = "harness.unattributed"
#: RunResult fields reported as simulated-time counts.
RUN_COUNTS = {
    "cpu.sq_full_cycles": "sq_full_cycles",
    "atom.log_entries": "log_entries",
    "atom.source_logged": "source_logged",
    "mem.log_writes": "log_writes",
}


@dataclass
class Timed:
    """What one timed loop of whole passes measured."""

    #: Job time in host seconds, calibrations excluded.
    wall: float
    #: The same, normalised.
    norm_wall: float
    passes: list
    seeds: list
    #: Normalised ms per point.
    point_ms: list
    #: Counter values after pass 0 (deterministic for a given seed).
    pass0_counts: dict
    counts: dict
    fingerprint: str

    @property
    def scale(self) -> float:
        return self.norm_wall / self.wall


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {'setup_s': ...} and exit "
                         "(used for the extra set-up samples)")
    return ap.parse_args(argv)


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of quantile ``p``.

    A weighted mean of all order statistics, the weights being the
    Beta(p(n+1), (1-p)(n+1)) probability of each rank's interval.  It
    tends to the sample quantile as n grows and, unlike it, does not
    jump across the gaps between clusters of unequal points, which the
    72 figure-regen points have.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (a + b - 2)
    peak = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode)
    total = est = 0.0
    steps = 8  # midpoint-rule steps per rank interval
    for i in range(steps * n):
        t = (i + 0.5) / (steps * n)
        w = math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - peak)
        total += w
        est += w * xs[i // steps]
    return est / total


def fingerprint(kept: list, passes: list) -> str:
    """Digest of pass 0's deterministic simulated results.

    Per point: the executor's outcome (cycles, txns, verdicts, recovery
    costs, durable-state digests) minus its spec, plus the events,
    cycles and commits of every ``System.run``; then the job's verdicts.
    """
    records = []
    for outcome, sim in kept:
        record = asdict(outcome) if is_dataclass(outcome) else repr(outcome)
        if isinstance(record, dict):
            for key in ("spec", "point", "stats"):
                record.pop(key, None)
        records.append([record, sim])
    records.append(passes[0].verdicts)
    blob = json.dumps(records, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def timed(name, run_job, probe, seed, seconds, tracing) -> Timed:
    """Run whole passes of the job for about ``seconds`` of job time."""
    from jobs import workload_seed

    probe.reset()
    cal = probe.calibrator = Calibrator()
    probe.recording, probe.tracing = True, tracing
    passes, seeds, pass0 = [], [], {}
    cal.mark()
    while True:
        k = len(passes)
        seeds.append(workload_seed(name, seed, k))
        probe.keep = k == 0
        idx = probe.open("harness.job") if tracing else -1
        passes.append(run_job(seeds[-1]))
        if idx >= 0:
            probe.close(idx)
        if k == 0:
            pass0 = dict(probe.counts)
        spent = sum((end - begin) * scale
                    for begin, end, scale in cal.segments())
        # Stop at the pass boundary nearest to the time budget, counted
        # in normalised time so the pass count does not follow the host.
        if spent + spent / len(passes) / 2 >= seconds:
            break
    probe.recording = probe.tracing = probe.keep = False
    cal.mark()
    segments = cal.segments()
    ends = [end for _, end, _ in segments]
    point_ms = [
        1e3 * host * segments[min(bisect.bisect_left(ends, end),
                                  len(ends) - 1)][2]
        for host, end in probe.points
    ]
    points = sum(p.points for p in passes)
    if points != len(point_ms):
        raise RuntimeError(f"probe timed {len(point_ms)} points, "
                           f"the job reports {points}")
    return Timed(wall=sum(end - begin for begin, end, _ in segments),
                 norm_wall=sum((end - begin) * scale
                               for begin, end, scale in segments),
                 passes=passes, seeds=seeds, point_ms=point_ms,
                 pass0_counts=pass0, counts=dict(probe.counts),
                 fingerprint=fingerprint(probe.kept, passes))


def setup_samples(args, own: float) -> list[float]:
    """Normalised set-up time of this process and of fresh children."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def plain_metrics(run: Timed, setups: list[float]) -> dict:
    points = len(run.point_ms)
    failed = sum(p.failed for p in run.passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (points / run.norm_wall, "1/s"),
        "point_ms.p50": (hd_quantile(run.point_ms, 0.5), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_share": (1 - failed / points, "share"),
    }


def layer_metrics(run: Timed, plain: Timed, probe) -> dict:
    """Per-layer self times, counts and the tracing overhead."""
    from probe import CALIBRATION, COUNTS, LAYERS

    own, inclusive = probe.self_times()
    jobs_wall = inclusive["harness.job"] - inclusive.get(CALIBRATION, 0.0)
    covered = sum(own.values()) - own.get(CALIBRATION, 0.0)
    if abs(covered - jobs_wall) > 1e-6 * run.wall:
        raise RuntimeError(f"span self times cover {covered} s of "
                           f"{jobs_wall} s in job spans")
    points = len(run.point_ms)
    shares = {SELF_NAMES.get(n, n): own.get(n, 0.0) for n in LAYERS}
    shares[RESIDUAL] = run.wall - jobs_wall
    out = {}
    for name, seconds in shares.items():
        out[f"{name}_ms"] = (seconds * run.scale * 1e3 / points, "ms/point")
        out[f"{name}_pct"] = (100 * seconds / run.wall, "%")
    for name in COUNTS:
        out[name] = (run.pass0_counts.get(name, 0), "count")
    for name, field_name in RUN_COUNTS.items():
        out[name] = (sum(getattr(o, field_name, 0) for o, _ in probe.kept),
                     "count")
    simulate = inclusive.get("runtime.simulate", 0.0) * run.scale
    out["engine.events_per_s"] = (
        run.counts.get("engine.events", 0) / max(simulate, 1e-9), "1/s")
    plain_rate = len(plain.point_ms) / plain.norm_wall
    traced_rate = points / run.norm_wall
    out["trace.points_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_pct"] = (100 * (plain_rate / traced_rate - 1), "%")
    out["trace.spans"] = (len(probe.spans), "count")
    return out


def write_spans(args, probe) -> Path:
    """Write the traced half's spans, kept in memory until now."""
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent", "point"],
        "spans": probe.spans,
    }))
    return path.relative_to(ROOT)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from jobs import JOBS, warm_up, workload_seed
    from probe import Probe

    run_job = JOBS[args.workload][0]
    probe = Probe()
    probe.install_points()
    warm_up(args.workload, workload_seed(args.workload, args.seed, 0))
    own_setup = time.perf_counter() - START
    own_setup *= REFERENCE_MS / 1e3 / ((SETUP_REF + measure()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    lines = []
    if args.trace:
        half = args.seconds / 2
        plain = timed(args.workload, run_job, probe, args.seed, half, False)
        probe.install_layers()
        run = timed(args.workload, run_job, probe, args.seed, half, True)
        metrics = layer_metrics(run, plain, probe)
        runs = [plain, run]
        lines.append(f"spans written to {write_spans(args, probe)}")
        if plain.fingerprint != run.fingerprint:
            lines.append(f"FAIL tracing changed the simulated work: "
                         f"{plain.fingerprint} untraced, "
                         f"{run.fingerprint} traced")
    else:
        setups = setup_samples(args, own_setup)
        run = timed(args.workload, run_job, probe, args.seed, args.seconds,
                    False)
        metrics = plain_metrics(run, setups)
        runs = [run]
        lines.append("set-up samples (normalised s): "
                     + ", ".join(f"{s:.4f}" for s in setups))

    attempted = sum(len(r.point_ms) for r in runs)
    failed = sum(p.failed for r in runs for p in r.passes)
    for r in runs:
        for p in r.passes:
            lines.extend(f"FAIL {e}" for e in p.errors)
    print_report(args, run, metrics, attempted, failed, lines)
    correct = not any(line.startswith("FAIL") for line in lines)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def print_report(args, run: Timed, metrics: dict, attempted: int,
                 failed: int, lines: list) -> None:
    points = len(run.point_ms)
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(run.passes)} pass(es) at workload seeds "
          f"{run.seeds[0]}..{run.seeds[-1]}, {points} points in "
          f"{run.wall:.3f} host s = {run.norm_wall:.3f} normalised s, "
          f"trace {'on' if args.trace else 'off'}")
    print(f"  {'raw points_per_s':<30} {points / run.wall:>16.4f} 1/s "
          f"(host time)")
    print(f"  {'fingerprint (pass 0)':<30} {run.fingerprint:>16}")
    print(f"  {'failed_share':<30} {failed / attempted:>16.4f} "
          f"({failed} of {attempted} points)")
    if points >= P90_MIN_POINTS:
        p90 = hd_quantile(run.point_ms, 0.9)
        print(f"  {'point_ms.p90':<30} {p90:>16.4f} ms")
    logerr = run.passes[0].paper_logerr
    if logerr is not None:
        print(f"  {'paper_logerr (pass 0)':<30} {logerr:>16.4f} mean "
              f"|ln(measured/paper)| of the Fig 5a gmeans against the "
              f"paper's published values, the model's only reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.4f} {unit}")
    for line in lines:
        print(f"  {line}")


if __name__ == "__main__":
    sys.exit(main())
