"""Populate once: a restored keyed populate equals a fresh one.

``Workload.setup(key=..., keep=True)`` keeps its populate as the one
snapshot in the process, and the next setup with the same key restores
it, whatever the design of the machine it lands on.  Each restore must
leave the image, the heap and the workload exactly as a fresh populate
would, and a run that starts from a restore must measure exactly what a
cold run does.  ``Campaign.run`` keeps a populate only for a point whose
successor shares it.
"""

from __future__ import annotations

import gc
from dataclasses import asdict, replace

import pytest

import repro.workloads.base as base
from helpers import build_system
from repro.common.errors import MemoryError_
from repro.config import Design
from repro.harness.campaign import Campaign, aggregate_results
from repro.harness.runner import RunSpec, run_spec
from repro.mem.image import MemoryImage
from repro.runtime.heap import Heap
from repro.runtime.system import System
from repro.workloads import make_workload
from repro.workloads.base import Workload, clear_populate_memo
from repro.workloads.tpcc.schema import TpccScale

TABLE_II = ["hash", "queue", "rbtree", "btree", "sdg", "sps"]

WORKLOAD_KW = {"tpcc": {"scale": TpccScale(items=20,
                                           customers_per_district=5)}}


def populated(name: str, design: Design, key=None, keep: bool = True,
              line_checksums: bool = False) -> Workload:
    system = build_system(design=design, line_checksums=line_checksums)
    workload = make_workload(name, system, entry_bytes=256,
                             initial_items=12, seed=5,
                             **WORKLOAD_KW.get(name, {}))
    workload.setup(key=key, keep=keep and key is not None)
    return workload


def golden(workload: Workload) -> dict:
    return {k: v for k, v in vars(workload).items() if k.startswith("golden")}


def assert_same_populate(restored: Workload, fresh: Workload) -> None:
    image, ref = restored.image, fresh.image
    assert image.durable_digest() == ref.durable_digest()
    assert image._vol_touched == ref._vol_touched
    assert image._dur_touched == ref._dur_touched
    for base_addr in image._dur_touched:
        assert image.volatile_line(base_addr) == image.durable_line(base_addr)
    assert image._line_crc == ref._line_crc
    heap, ref_heap = restored.heap, fresh.heap
    assert heap._next == ref_heap._next
    assert heap._free == ref_heap._free
    assert heap.allocated == ref_heap.allocated
    assert golden(restored) == golden(fresh)
    assert golden(fresh), "workload keeps no golden model"
    assert ([r.getstate() for r in restored.rngs]
            == [r.getstate() for r in fresh.rngs])
    assert ([r.random() for r in restored.rngs]
            == [r.random() for r in fresh.rngs])
    assert vars(restored).keys() == vars(fresh).keys()
    assert restored.heap is restored.system.heap
    assert restored.image is restored.system.image


@pytest.mark.parametrize("name", TABLE_II + ["tpcc"])
def test_restore_equals_fresh_under_every_design(name):
    # The snapshot is taken on BASE, as run_spec's row order has it.
    populated(name, Design.BASE, key="row")
    for design in Design:
        fresh = populated(name, design)
        restored = populated(name, design, key="row")
        assert base._memo is not None and base._memo.key[-1] == "row"
        assert_same_populate(restored, fresh)


@pytest.mark.parametrize("name", ["hash", "tpcc"])
def test_restored_lines_verify_against_the_checksum_plane(name):
    populated(name, Design.BASE, key="row", line_checksums=True)
    restored = populated(name, Design.ATOM, key="row", line_checksums=True)
    fresh = populated(name, Design.ATOM, line_checksums=True)
    assert_same_populate(restored, fresh)
    lines = restored.image.touched_durable_lines()
    assert lines
    assert all(restored.image.verify_line(line) for line in lines)


def _spec(design: Design, **kw) -> RunSpec:
    fields = dict(workload="hash", num_cores=4, txns_per_thread=4,
                  warmup_per_thread=1, initial_items=8, seed=3)
    fields.update(kw)
    return RunSpec(design=design, **fields)


@pytest.fixture
def populates(monkeypatch):
    """Count the populates that actually run."""
    calls = []
    inner = Workload._populate

    def counted(self):
        calls.append(type(self).name)
        return inner(self)

    monkeypatch.setattr(Workload, "_populate", counted)
    return calls


@pytest.fixture
def takes(monkeypatch):
    """Count the snapshots taken."""
    calls = []
    inner = base._Snapshot.take.__func__

    def counted(cls, key, workload):
        calls.append(type(workload).name)
        return inner(cls, key, workload)

    monkeypatch.setattr(base._Snapshot, "take", classmethod(counted))
    return calls


def test_warm_run_equals_cold_run(populates):
    cold = run_spec(_spec(Design.ATOM_OPT))
    clear_populate_memo()
    run_spec(_spec(Design.BASE), keep_populate=True)
    warm = run_spec(_spec(Design.ATOM_OPT))
    assert len(populates) == 2
    assert asdict(warm) == asdict(cold)


@pytest.mark.parametrize("change", [
    dict(workload="queue"),
    dict(seed=4),
    dict(initial_items=9),
    dict(entry_bytes=256),
    dict(num_cores=8),
    dict(threads=2),
    dict(txns_per_thread=5),
    dict(workload_kw={"n_buckets": 32}),
    dict(workload_kw={"compute_cycles": 41}),
])
def test_any_populate_input_change_misses(populates, change):
    run_spec(_spec(Design.BASE), keep_populate=True)
    run_spec(_spec(Design.ATOM), keep_populate=True)
    assert len(populates) == 1
    run_spec(_spec(Design.ATOM, **change))
    assert len(populates) == 2


@pytest.mark.parametrize("change", [
    dict(design=Design.REDO),
    dict(channels=2),
    dict(latency_multiplier=5.0),
    dict(log_overrides={"collation": False}),
    dict(warmup_per_thread=2),
    dict(max_cycles=400_000_000),
])
def test_machine_only_change_hits_and_measures_as_cold(populates, change):
    changed = replace(_spec(Design.ATOM), **change)
    cold = run_spec(changed)
    clear_populate_memo()
    run_spec(_spec(Design.ATOM), keep_populate=True)
    warm = run_spec(changed)
    assert len(populates) == 2
    assert asdict(warm) == asdict(cold)


def test_setup_keeps_a_snapshot_only_when_asked(populates, takes):
    populated("hash", Design.BASE, key="row", keep=False)
    assert base._memo is None
    populated("hash", Design.BASE, key="row")
    populated("hash", Design.ATOM, key="row", keep=False)
    # The restore served the second setup, and nothing was kept after it.
    assert len(populates) == 2 and len(takes) == 1
    assert base._memo is None


def test_checksum_plane_change_misses(populates):
    populated("hash", Design.BASE, key="row")
    populated("hash", Design.ATOM, key="row")
    assert len(populates) == 1
    populated("hash", Design.ATOM, key="row", line_checksums=True)
    assert len(populates) == 2


def test_unkeyed_setup_neither_uses_nor_replaces_the_memo(populates):
    populated("hash", Design.BASE, key="row")
    kept = base._memo
    populated("hash", Design.BASE)
    assert base._memo is kept
    assert len(populates) == 2


def test_memo_keeps_one_entry_and_no_machine(populates):
    for name in ("hash", "queue"):
        populated(name, Design.BASE, key="row")
        populated(name, Design.ATOM, key="row")
    assert populates == ["hash", "queue"]
    populated("hash", Design.ATOM, key="row")
    assert populates == ["hash", "queue", "hash"]
    seen, stack = set(), [base._memo]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (System, Heap, MemoryImage)), obj
        stack.extend(gc.get_referents(obj))


def test_restore_needs_an_unwritten_image():
    populated("hash", Design.BASE, key="row")
    system = build_system(design=Design.ATOM)
    system.image.write(0, b"\x01")
    workload = make_workload("hash", system, entry_bytes=256,
                             initial_items=12, seed=5)
    with pytest.raises(MemoryError_, match="unwritten"):
        workload.setup(key="row")


ROW_DESIGNS = (Design.BASE, Design.ATOM, Design.ATOM_OPT)


def _grid(benchmark_major: bool) -> list[RunSpec]:
    if benchmark_major:
        return [_spec(d, workload=w) for w in ("hash", "queue")
                for d in ROW_DESIGNS]
    return [_spec(d, workload=w) for d in ROW_DESIGNS
            for w in ("hash", "queue")]


def test_campaign_populates_once_per_row(populates, takes):
    with Campaign(jobs=1, cache=None) as campaign:
        results = campaign.run(_grid(benchmark_major=True))
    assert populates == ["hash", "queue"]
    assert takes == ["hash", "queue"]
    assert base._memo is None
    clear_populate_memo()
    for spec, result in zip(_grid(benchmark_major=True), results):
        assert asdict(result) == asdict(run_spec(spec))


def test_campaign_takes_no_snapshot_that_no_point_uses(populates, takes):
    with Campaign(jobs=1, cache=None) as campaign:
        campaign.run(_grid(benchmark_major=False))
    assert len(populates) == 6
    assert takes == []


def test_campaign_seed_replicas_keep_rows_together(populates, takes):
    grid = _grid(benchmark_major=True)
    with Campaign(jobs=1, seeds=2, cache=None) as campaign:
        results = campaign.run(grid)
    # One populate per (benchmark, seed): the designs of a row follow
    # each other within each seed's pass.
    assert len(populates) == 4 and len(takes) == 4
    for spec, result in zip(grid, results):
        replicas = [run_spec(replace(spec, seed=spec.seed + k))
                    for k in range(2)]
        assert asdict(result) == asdict(aggregate_results(replicas))


def test_pooled_campaign_matches_inline():
    grid = _grid(benchmark_major=True)
    with Campaign(jobs=1, cache=None) as campaign:
        inline = campaign.run(grid)
    with Campaign(jobs=2, cache=None) as campaign:
        pooled = campaign.run(grid)
    assert [asdict(r) for r in pooled] == [asdict(r) for r in inline]
