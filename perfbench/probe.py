"""Timing probes installed from outside around the program's public calls.

Nothing here edits the program: every probe replaces a public function
or method with a wrapper that times the original.  Two levels exist.

* :meth:`Probe.install_points` (always on) times each campaign point at
  its executor and reads the simulated-work counters after every
  ``System.run``.  That is all a plain run pays for.
* :meth:`Probe.install_layers` (traced runs only) records one span per
  wrapped call into each layer: name, start, end, parent span and the
  point it belongs to.  Spans stay in memory; self times come from them
  when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf = time.perf_counter

#: Layer span names, in report order.  ``harness.job`` is the root span
#: of one pass of a workload's job; every other layer nests below it.
LAYERS = (
    "harness.job",
    "harness.campaign",
    "harness.point",
    "faults.point",
    "runtime.build",
    "workloads.populate",
    "runtime.simulate",
    "runtime.crash",
    "atom.recover",
    "mem.digest",
    "mem.recycle",
    "workloads.verify",
    "litmus.spec",
)

#: Span of a host-speed calibration (excluded from every layer).
CALIBRATION = "calibration"

#: Counters read at the layer boundaries.
COUNTS = (
    "engine.events",
    "runtime.sim_cycles",
    "runtime.txns",
    "atom.recover_calls",
    "atom.lines_scanned",
    "atom.records_undone",
    "litmus.spec_validations",
)


class Probe:
    """Per-point latencies, simulated-work counters and layer spans."""

    def __init__(self) -> None:
        #: Points and counters are recorded only while this is set, so
        #: warm-up points in set-up leave no trace.
        self.recording = False
        #: Layer spans are recorded only while this is set.
        self.tracing = False
        #: Keep each point's outcome and counters (for the fingerprint).
        self.keep = False
        #: ``(host seconds, end time)`` per point.
        self.points: list[tuple[float, float]] = []
        #: Host-speed calibrator, marked between points when due.
        self.calibrator = None
        self.kept: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Spans as ``[name, start, end, parent index, point index]``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._point = -1
        self._sim: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, parent, self._point])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self._stack.pop()

    def calibrate(self) -> None:
        """Time the reference kernel, in a span of its own when tracing."""
        idx = self.open(CALIBRATION) if self.tracing else -1
        self.calibrator.mark()
        if idx >= 0:
            self.close(idx)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: ``(self, inclusive)``.

        A span's self time is its duration minus the time its child spans
        cover, so the self times of a tree add up to its root's duration.
        Calibration spans are children like any other, so no layer is
        charged for them.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
            inclusive[name] += end - start
        return own, inclusive

    def reset(self) -> None:
        self.points.clear()
        self.kept.clear()
        self.counts.clear()
        self.spans.clear()
        self._point = -1

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _patch(owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module or class member) by a wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _span(self, name: str, after=None):
        """Wrapper factory: one ``name`` span per call while tracing."""
        probe = self

        def make(fn):
            def wrapped(*args, **kwargs):
                if not probe.tracing:
                    return fn(*args, **kwargs)
                idx = probe.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    probe.close(idx)
                if after is not None:
                    after(out)
                return out

            return wrapped

        return make

    def _point_wrapper(self, name: str):
        """Wrapper factory for a point executor: latency + outcome."""
        probe = self

        def make(fn):
            def wrapped(*args, **kwargs):
                if not probe.recording:
                    return fn(*args, **kwargs)
                probe._point += 1
                probe._sim = []
                idx = probe.open(name) if probe.tracing else -1
                start = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = perf()
                    if idx >= 0:
                        probe.close(idx)
                probe.points.append((end - start, end))
                if probe.keep:
                    probe.kept.append((out, probe._sim))
                if probe.calibrator.due():
                    probe.calibrate()
                return out

            return wrapped

        return make

    def install_points(self) -> None:
        """Time every point executor and count simulated work per run."""
        import repro.faults.sweep as sweep
        import repro.harness.campaign as campaign
        import repro.litmus.explorer as explorer
        from repro.runtime.system import System

        point = self._point_wrapper("harness.point")
        self._patch(campaign, "run_spec", point)
        self._patch(campaign, "execute_crash_point", point)
        self._patch(explorer, "execute_litmus_point", point)
        self._patch(sweep, "execute_fault_point",
                    self._point_wrapper("faults.point"))

        probe = self

        def counted_run(fn):
            def run(system, *args, **kwargs):
                if not probe.recording:
                    return fn(system, *args, **kwargs)
                engine = system.engine
                before = engine.events_dispatched
                out = fn(system, *args, **kwargs)
                events = engine.events_dispatched - before
                txns = int(system.stats.total("txns_committed", prefix="core"))
                probe.counts["engine.events"] += events
                probe.counts["runtime.sim_cycles"] += engine.now
                probe.counts["runtime.txns"] += txns
                probe._sim.append((events, engine.now, txns))
                return out

            return run

        self._patch(System, "run", counted_run)

    def install_layers(self) -> None:
        """Record a span around the public call into each layer."""
        import repro.faults.storm as storm
        import repro.workloads.litmus  # noqa: F401 — registers subclasses
        import repro.workloads.tpcc  # noqa: F401
        from repro.harness.campaign import Campaign
        from repro.litmus.spec import LitmusSpec
        from repro.mem.image import MemoryImage
        from repro.runtime.system import System
        from repro.workloads.base import Workload

        counts = self.counts

        def after_recover(report):
            cost = getattr(report, "cost", None)
            counts["atom.recover_calls"] += 1
            if cost is not None:
                counts["atom.lines_scanned"] += cost.lines_scanned
                counts["atom.records_undone"] += cost.records_undone

        def counting(fn):
            def validate(spec, *args, **kwargs):
                if self.tracing:
                    counts["litmus.spec_validations"] += 1
                return fn(spec, *args, **kwargs)

            return validate

        for method in ("run", "run_crash", "run_litmus", "run_faults"):
            self._patch(Campaign, method, self._span("harness.campaign"))
        self._patch(System, "__init__", self._span("runtime.build"))
        self._patch(System, "run", self._span("runtime.simulate"))
        self._patch(System, "crash", self._span("runtime.crash"))
        self._patch(System, "recover",
                    self._span("atom.recover", after=after_recover))
        self._patch(storm, "storm_recover", self._span("atom.recover"))
        self._patch(MemoryImage, "durable_digest", self._span("mem.digest"))
        self._patch(MemoryImage, "recycle", self._span("mem.recycle"))
        self._patch(LitmusSpec, "from_dict", self._span("litmus.spec"))
        self._patch(LitmusSpec, "validate", counting)
        for cls in _subclasses(Workload):
            if "setup" in cls.__dict__:
                self._patch(cls, "setup", self._span("workloads.populate"))
            for name in ("verify_durable", "durable_state", "state_digest"):
                if name in cls.__dict__:
                    self._patch(cls, name, self._span("workloads.verify"))


def _subclasses(cls: type) -> set[type]:
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _subclasses(sub)
    return out
