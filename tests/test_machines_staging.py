"""In-transit staging area: put/get, capacity back-pressure, and the
hand-off it provides to the one workflow driver."""

import itertools
import os

import numpy as np
import pytest

from repro.core import run_combined_workflow
from repro.machines import StagingArea
from repro.sim import SimulationConfig


def _blocks(n=10):
    return [{"pos": np.zeros((n, 3), dtype=np.float32), "tag": np.arange(n, dtype=np.uint64)}]


def test_put_get_roundtrip():
    area = StagingArea()
    nbytes = area.put("l2_step0001", _blocks())
    assert nbytes == 10 * 12 + 10 * 8
    item = area.get("l2_step0001")
    assert item.n_rows == 10
    data = item.read_all()
    assert np.array_equal(data["tag"], np.arange(10))
    assert item.read_block(0).keys() == data.keys()
    with pytest.raises(IndexError):
        item.read_block(1)


def test_get_drains_by_default():
    area = StagingArea()
    area.put("a", _blocks())
    area.get("a")
    assert len(area) == 0
    with pytest.raises(KeyError):
        area.get("a")


def test_get_without_drain_keeps_item():
    area = StagingArea()
    area.put("a", _blocks())
    area.get("a", drain=False)
    assert "a" in list(area)


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
    area.get("a")  # drain frees space
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
    assert area.used_bytes == 5 * 12 + 5 * 8


def test_discard_frees_the_item():
    area = StagingArea()
    area.put("a", _blocks())
    area.discard("a")
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
