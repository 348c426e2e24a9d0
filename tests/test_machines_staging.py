"""The Level 2 devices: one put/names/get/release contract over a spool
directory and the in-transit staging area, the staging area's capacity
back-pressure, and the hand-off both provide to the one workflow driver."""

import itertools
import os

import numpy as np
import pytest

from repro.core import run_combined_workflow
from repro.machines import SpoolDirectory, StagingArea
from repro.sim import SimulationConfig


def _blocks(n=10):
    return [{"pos": np.zeros((n, 3), dtype=np.float32), "tag": np.arange(n, dtype=np.uint64)}]


@pytest.mark.parametrize("kind", ["staging", "spool"])
def test_level2_device_contract(kind, tmp_path):
    """Both devices: put → names(pattern) → get().read_all() round-trips
    the blocks, a spool not yet created lists empty, and release frees a
    staged item's bytes but keeps a spool file on disk."""
    device = StagingArea() if kind == "staging" else SpoolDirectory(tmp_path / "not-yet")
    assert device.kind == kind
    assert device.names() == []
    blocks = _blocks(4) + _blocks(3)
    key = device.put("l2_step0002.gio", blocks)
    device.put("other_step0001.gio", _blocks(1))
    assert device.names("l2_step*.gio") == [key]
    assert os.path.basename(key) == "l2_step0002.gio"
    data = device.get(key).read_all()
    for name in ("pos", "tag"):
        assert np.array_equal(data[name], np.concatenate([b[name] for b in blocks]))
    assert np.array_equal(device.get(key).read_block(1)["tag"], blocks[1]["tag"])
    device.release(key)
    if kind == "staging":
        assert device.names() == ["other_step0001.gio"]
        assert device.used_bytes == 1 * 12 + 1 * 8
    else:
        assert os.path.exists(key) and device.names("l2_step*.gio") == [key]


def test_put_get_roundtrip():
    area = StagingArea()
    assert area.put("l2_step0001", _blocks()) == "l2_step0001"
    assert area.used_bytes == 10 * 12 + 10 * 8
    item = area.get("l2_step0001")
    assert item.n_rows == 10
    data = item.read_all()
    assert np.array_equal(data["tag"], np.arange(10))
    assert item.read_block(0).keys() == data.keys()
    with pytest.raises(IndexError):
        item.read_block(1)


def test_get_drains_by_default():
    """Draining is an explicit release: the consumer ``get``s, then
    ``release`` takes the item off the device and a later get misses."""
    area = StagingArea()
    area.put("a", _blocks())
    area.get("a")
    area.release("a")
    assert len(area) == 0
    with pytest.raises(KeyError):
        area.get("a")


def test_get_without_drain_keeps_item():
    """A get never consumes (a retried job reads the item again)."""
    area = StagingArea()
    area.put("a", _blocks())
    first, again = area.get("a").read_all(), area.get("a").read_all()
    assert np.array_equal(first["tag"], again["tag"])
    assert area.names() == ["a"] and area.gets == 2


def test_duplicate_name_rejected():
    area = StagingArea()
    area.put("a", _blocks())
    with pytest.raises(KeyError):
        area.put("a", _blocks())


def test_capacity_back_pressure():
    area = StagingArea(capacity_bytes=250)
    area.put("a", _blocks(10))  # 200 bytes
    with pytest.raises(MemoryError):
        area.put("b", _blocks(10))
    area.get("a")  # a get frees nothing
    with pytest.raises(MemoryError):
        area.put("b", _blocks(10))
    area.release("a")
    area.put("b", _blocks(10))


def test_accounting():
    area = StagingArea()
    area.put("a", _blocks(5))
    area.put("b", _blocks(5))
    assert area.puts == 2
    assert area.bytes_staged_total == 2 * (5 * 12 + 5 * 8)
    assert area.used_bytes == area.bytes_staged_total
    area.get("a")
    assert area.gets == 1
    assert area.used_bytes == area.bytes_staged_total  # a get is not a release
    area.release("a")
    assert area.used_bytes == 5 * 12 + 5 * 8


def test_release_frees_the_item():
    area = StagingArea()
    area.put("a", _blocks())
    area.release("a")
    assert len(area) == 0 and area.used_bytes == 0
    assert area.gets == 0  # freeing is not a fetch


def test_handoff_invariance(tmp_path, monkeypatch):
    """One driver, two Level 2 hand-offs: the L3 catalog is the same from
    a spool directory and from a StagingArea in its place, simple or
    co-scheduled, pipelined or not — and staging touches no disk."""
    cfg = SimulationConfig(
        np_per_dim=20, box=36.0, z_initial=24.0, z_final=0.0, n_steps=12, ng=40
    )
    steps = [4, 8, 12]
    monkeypatch.chdir(tmp_path)
    catalogs = []
    for staged, coschedule, pipeline in itertools.product((False, True), repeat=3):
        spool = StagingArea() if staged else tmp_path / f"spool_{coschedule}_{pipeline}"
        result = run_combined_workflow(
            cfg,
            spool,
            threshold=150,
            min_count=30,
            n_ranks=4,
            coschedule=coschedule,
            pipeline_insitu=pipeline,
            analysis_steps=steps,
        )
        assert not result.degraded and len(result.offline_catalog) >= 1
        names = [f"l2_step{s:04d}.gio" for s in steps]
        assert [os.path.basename(p) for p in result.level2_paths] == names
        if staged:
            assert spool.puts == 3 and len(spool) == 0  # every item drained by its job
        catalogs.append(result.catalog.records)
    for records in catalogs[1:]:
        assert np.array_equal(records, catalogs[0])
    # only the four spool runs wrote Level 2 files, three each
    assert len(list(tmp_path.rglob("*.gio"))) == 4 * len(steps)
    assert not list(tmp_path.glob("*.gio"))
