"""Self-check of the benchmark itself, at ``--quick`` scale.

    python -m pytest bench -q

Not collected by tier-1 (``testpaths = ["tests"]``).  It checks the
benchmark, not the program: that every metric ``BENCHMARK.json`` declares
is really emitted, that nothing undeclared is, that each verifier rejects
a sabotaged product, and that ``--compare`` tells ok / worse / unresolved
apart.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = bench_run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, list[dict]]:
    """All four workloads, untraced then traced: contract objects + raw runs."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = bench("--trace", "both", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    return results, json.loads(out.read_text())["runs"]


def test_every_run_is_correct_and_carries_exactly_the_declared_metrics(quick):
    results, _ = quick
    assert sorted(results) == sorted(f"{w}/trace{t}" for w in WORKLOADS for t in (0, 1))
    for key, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, key
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, key
        declared = SPEC["per_layer"] if key.endswith("1") else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}, key
        for m in declared:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert result["metrics"][m["name"]]["unit"] == m["unit"], (key, m["name"])


def test_end_to_end_metrics_are_never_zero(quick):
    results, _ = quick
    for w in WORKLOADS:
        for name, m in results[f"{w}/trace0"]["metrics"].items():
            assert m["value"] > 0, (w, name)


def test_every_declared_layer_metric_is_measured_by_some_workload(quick):
    _, runs = quick
    measured = set().union(*(r["metrics"] for r in runs if r["trace"]))
    assert measured == {m["name"] for m in SPEC["per_layer"]}
    for r in runs:
        if r["trace"]:
            assert r["spans"] and all(s["end"] >= s["start"] for s in r["spans"])
            assert {s["workload"] for s in r["spans"]} == {r["workload"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_sabotaged_product_fails_the_command(workload):
    """One halo count altered / one job left RUNNING: exit code and result say so."""
    done = bench("--workload", workload, "--sabotage")
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_the_stand_in_disk_counts_waits_and_hands_os_fsync_back():
    import workloads

    real = os.fsync
    with workloads.FlushDevice(modelled=True) as device:
        os.fsync(-1)  # the real call would raise EBADF: it is not made
        os.fdatasync(-1)
    assert os.fsync is real
    assert device.count == 2 and device.seconds >= 2 * workloads.FLUSH_LATENCY_S


def _runs(workload: str, walls: list[float]) -> dict:
    return {
        "runs": [
            {"workload": workload, "trace": 0, "metrics": {"wall_s": {"value": w}}}
            for w in walls
        ]
    }


@pytest.mark.parametrize(
    ("walls_b", "verdict", "code"),
    [
        ([1.0, 1.01, 1.02], "ok", 0),
        ([1.2, 1.21, 1.22], "worse", 1),  # inside BENCHMARK.json's bound, outside the row's
        ([0.5, 1.0, 3.0], "unresolved", 0),
        ([2.0], "unresolved (one run)", 0),
    ],
)
def test_compare_verdicts(tmp_path, capsys, walls_b, verdict, code):
    """A is a file, B a directory with one file per run."""
    a, b = tmp_path / "a.json", tmp_path / "b"
    a.write_text(json.dumps(_runs(WORKLOADS[0], [1.0, 1.01, 1.02])))
    b.mkdir()
    for i, wall in enumerate(walls_b):
        (b / f"seed{i}.json").write_text(json.dumps(_runs(WORKLOADS[0], [wall])))
    assert bench_run.compare(str(a), str(b), SPEC) == code
    assert f"  {verdict}  (base" in capsys.readouterr().out.splitlines()[-1]


def test_row_bounds_only_tighten_the_declared_bound():
    declared = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name, rows in bench_run.ROW_BOUNDS.items():
        assert set(rows) <= set(WORKLOADS), name
        assert all(0 < b < declared[name] for b in rows.values()), name


def test_out_replaces_an_existing_file(tmp_path):
    out = tmp_path / "stale.json"
    out.write_text(json.dumps(_runs("stale", [1.0])))
    done = bench("--workload", "campaign-2k", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert [r["workload"] for r in json.loads(out.read_text())["runs"]] == ["campaign-2k"]
