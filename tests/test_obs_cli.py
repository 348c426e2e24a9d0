"""``python -m repro.obs``: the campaign console, end to end.

The PR's acceptance flow: a fault-injected ``run_combined_workflow``
journals itself; ``report`` / ``timeline`` / ``trace`` reconstruct the
phase table, lanes, and one causally-linked Chrome trace from the
journal alone; the ``--canonical`` projections are **byte-identical**
across two independently-executed seeded runs; ``tail`` and ``report``
work mid-run on a live journal (and deterministically re-read it,
verified under ``check_determinism``); ``diff`` flags metric drift.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.check import check_determinism
from repro.core import run_combined_workflow
from repro.faults import FaultPlan, FaultSpec, fault_plan, set_fault_plan
from repro.obs.cli import main
from repro.obs.journal import RunJournal, read_journal
from repro.sim import SimulationConfig


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _journaled_run(root, spool: str = "spool") -> str:
    """One seeded, fault-injected combined run journaled under ``root``.

    ``spool`` varies between the two fixture runs on purpose: journaled
    span fields carry spool-file paths, and the canonical projection
    must basename them away for byte-identity to survive runs in
    different directories (a real leak caught at the CLI surface).
    """
    cwd = os.getcwd()
    os.chdir(root)
    try:
        plan = FaultPlan(
            seed=7,
            sites={
                "io.write": FaultSpec(fail_first=1),
                "offline.job": FaultSpec(fail_first=1),
            },
        )
        with fault_plan(plan):
            run_combined_workflow(
                SimulationConfig(np_per_dim=20, box=36.0, z_initial=30.0, n_steps=16),
                spool_dir=spool,
                threshold=60,
                min_count=40,
                n_ranks=4,
                analysis_workers=2,
                journal_dir="journal",
                run_id="caseA",
            )
    finally:
        os.chdir(cwd)
    return str(root / "journal" / "caseA")


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The same seeded workflow executed twice, in separate directories."""
    a = _journaled_run(tmp_path_factory.mktemp("obs_cli_a"))
    b = _journaled_run(tmp_path_factory.mktemp("obs_cli_b"), spool="spool_b/deep")
    return a, b


# -- report --------------------------------------------------------------------


def test_report_reconstructs_phase_table_from_journal(two_runs, capsys):
    a, _ = two_runs
    assert main(["report", a]) == 0
    out = capsys.readouterr().out
    assert "Per-run phase breakdown" in out
    assert "Off-line analysis" in out and "Parallel exec" in out
    assert "faults injected" in out  # the failure summary made it in
    assert "config" in out and "seeds" in out  # manifest header


def test_exec_worker_spans_causally_parented_in_journal(two_runs):
    """The acceptance link, straight from the durable journal: exec-worker
    item spans parent under the driver's ``exec.run`` span."""
    a, _ = two_runs
    view = read_journal(a)
    spans = view.spans()
    run_spans = [s for s in spans if s.name == "exec.run"]
    items = [s for s in spans if s.name == "exec.item"]
    assert run_spans and items
    runs = {s.span_id: s for s in run_spans}
    assert all(s.parent_id in runs for s in items)
    # pooled batches (the off-line jobs, 2 workers) render on worker lanes,
    # inline ones (the in-situ batches) on the lane of the thread that ran them
    pooled = [s for s in items if s.thread.startswith("exec-worker-")]
    inline = [s for s in items if s not in pooled]
    assert pooled and inline
    assert all(runs[s.parent_id].fields["workers"] >= 2 for s in pooled)
    assert all(
        s.thread == runs[s.parent_id].thread and runs[s.parent_id].fields["workers"] == 1
        for s in inline
    )
    # ... and the whole chain carries one run id
    assert {s.run for s in spans} == {"caseA"}


def test_fault_and_retry_events_carry_the_run_id(two_runs):
    a, _ = two_runs
    view = read_journal(a)
    fault_evs = [e for e in view.events() if e.name == "fault.injected"]
    retry_evs = [e for e in view.events() if e.name.startswith("retry.")]
    assert fault_evs and retry_evs
    assert all(e.run == "caseA" for e in fault_evs + retry_evs)


# -- canonical byte-identity ---------------------------------------------------


def _capture(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_canonical_report_byte_identical_across_runs(two_runs, capsys):
    a, b = two_runs
    out_a = _capture(capsys, ["report", a, "--canonical"])
    out_b = _capture(capsys, ["report", b, "--canonical"])
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["complete"] is True
    assert payload["counters"]["faults_injected_total"] >= 1


def test_canonical_timeline_byte_identical_across_runs(two_runs, capsys):
    a, b = two_runs
    out_a = _capture(capsys, ["timeline", a, "--canonical"])
    out_b = _capture(capsys, ["timeline", b, "--canonical"])
    assert out_a == out_b
    lanes = json.loads(out_a)["lanes"]
    assert "exec-worker" in lanes and lanes["exec-worker"] >= 1


def test_canonical_trace_byte_identical_across_runs(two_runs, tmp_path, capsys):
    a, b = two_runs
    ta, tb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["trace", a, "--canonical", "-o", ta]) == 0
    assert main(["trace", b, "--canonical", "-o", tb]) == 0
    capsys.readouterr()
    bytes_a, bytes_b = open(ta, "rb").read(), open(tb, "rb").read()
    assert bytes_a == bytes_b
    trace = json.loads(bytes_a)
    names = {e["name"] for e in trace["traceEvents"]}
    assert "exec.run" in names and "exec.item" in names
    items = [e for e in trace["traceEvents"] if e["name"] == "exec.item"]
    assert all(e["args"]["parent"] == "exec.run" for e in items)


def test_a_pool_wait_span_changes_no_canonical_output(two_runs, tmp_path, capsys):
    """Whether a pooled batch finds the shared pool busy is a thread race:
    a journal with one more ``exec.pool_wait`` span projects to the same
    canonical report, timeline and trace."""
    a, _ = two_runs
    b = shutil.copytree(a, tmp_path / "caseA")
    path = b / "journal.jsonl"
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    run = next(r for r in records if r.get("kind") == "span" and r["name"] == "exec.run")
    wait = {
        **run,
        "seq": len(records),
        "name": "exec.pool_wait",
        "span_id": 1 + max(r.get("span_id", 0) for r in records),
        "parent_id": run["span_id"],
        "depth": run["depth"] + 1,
        "fields": {"workers": 2},
    }
    path.write_text("\n".join([*lines[:-1], json.dumps(wait), lines[-1]]) + "\n")
    assert any(s.name == "exec.pool_wait" for s in read_journal(str(b)).spans())
    for cmd in (["report"], ["timeline"]):
        assert _capture(capsys, [*cmd, a, "--canonical"]) == _capture(
            capsys, [*cmd, str(b), "--canonical"]
        )
    ta, tb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["trace", a, "--canonical", "-o", ta]) == 0
    assert main(["trace", str(b), "--canonical", "-o", tb]) == 0
    capsys.readouterr()
    assert open(ta, "rb").read() == open(tb, "rb").read()


# -- full-fidelity outputs -----------------------------------------------------


def test_timeline_ascii_and_json(two_runs, capsys):
    a, _ = two_runs
    out = _capture(capsys, ["timeline", a])
    assert "workflow lanes" in out and "overlap" in out
    payload = json.loads(_capture(capsys, ["timeline", a, "--json"]))
    assert payload["workflow"]["sim_seconds"] > 0
    assert any(lane.startswith("exec-worker-") for lane in payload["workflow"]["lanes"])


def test_trace_is_one_causally_linked_chrome_trace(two_runs, tmp_path, capsys):
    a, _ = two_runs
    out_path = str(tmp_path / "trace.json")
    assert main(["trace", a, "-o", out_path]) == 0
    trace = json.load(open(out_path))
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert any(e.get("name") == "exec.item" for e in events)


def test_tail_prints_records(two_runs, capsys):
    a, _ = two_runs
    assert main(["tail", a, "--last", "3"]) == 0
    out = capsys.readouterr().out
    assert "run.end" in out and len(out.strip().splitlines()) == 3


# -- live journals (mid-run) ---------------------------------------------------


def test_tail_and_report_on_a_live_journal(tmp_path, capsys):
    """Re-opening a journal that has no ``run.end`` yet must work — that
    is the whole point of ``tail``-ing a running campaign."""
    j = RunJournal.create(tmp_path, run_id="live")
    j.write({"kind": "event", "name": "step", "fields": {"i": 0}})
    j.flush()  # mid-run: journal is open, no run.end

    assert main(["tail", str(tmp_path / "live")]) == 0
    assert "step" in capsys.readouterr().out
    assert main(["report", str(tmp_path / "live")]) == 0
    assert "no run.end" in capsys.readouterr().out

    def read_live():
        view = read_journal(tmp_path / "live")
        return [r.get("name") for r in view.records], view.complete

    check_determinism(read_live, runs=3)  # re-reads are stable mid-run
    j.close()
    assert main(["report", str(tmp_path / "live")]) == 0
    assert "no run.end" not in capsys.readouterr().out


def test_follow_stops_at_run_end(tmp_path, capsys):
    j = RunJournal.create(tmp_path, run_id="done")
    j.write({"kind": "event", "name": "only"})
    j.close()
    assert main(["tail", str(tmp_path / "done"), "--follow", "--max-seconds", "5"]) == 0
    out = capsys.readouterr().out
    assert "only" in out and "run.end" in out


# -- diff ----------------------------------------------------------------------


def test_diff_identical_runs_is_clean(two_runs, capsys):
    a, b = two_runs
    assert main(["diff", a, b, "--tolerance", "5.0"]) == 0
    assert "no drift" in capsys.readouterr().out


def test_diff_flags_count_drift_and_bench_regression(tmp_path, capsys):
    for rid, widgets in (("r1", 3.0), ("r2", 5.0)):
        j = RunJournal.create(tmp_path, run_id=rid, config={"k": 1})
        j.metrics_snapshot({"widgets_total": widgets, "wall_seconds": 1.0 + widgets})
        j.close()
    a, b = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["diff", a, b]) == 1
    out = capsys.readouterr().out
    assert "count drift widgets_total" in out

    bench = tmp_path / "BENCH_obs.json"
    bench.write_text(json.dumps({"wall_seconds": 1.0}))
    assert main(["diff", a, b, "--bench", str(bench), "--tolerance", "0.5"]) == 1
    assert "regression vs baseline wall_seconds" in capsys.readouterr().out


def test_missing_journal_is_a_usage_error(capsys):
    assert main(["report", "/nonexistent/journal"]) == 2
    assert "error:" in capsys.readouterr().err
