"""The durable-file layer as a whole: one format, written in one place.

* **Cross-version compatibility**: ``tests/data/seed_run`` and
  ``tests/data/seed_store/manifest.json`` were written by the code
  *before* the store, the run journal and the recorder's file sink were
  rebased on :class:`repro.obs.journal.AppendLog` (commit 7fa00ac, by the
  ``_write_store`` / ``_write_run`` scenarios below under a frozen clock).
  ``seed_store/jobs.jsonl`` was rewritten by the commit that made live
  store mutations apply through replay's code: one clock read per record
  instead of two per transition, so only its ``wall`` stamps moved, and
  the 7fa00ac bytes still replay to ``STORE_FINGERPRINT``.  The fixtures
  must still open and replay, and the same scenarios run against today's
  code must reproduce them byte for byte.
* **Architecture guard**: ``os.fsync``, ``os.replace`` and append-mode
  ``open`` appear in ``src/repro`` only inside ``obs/journal.py`` plus an
  explicit allowlist, so a fourth hand-rolled writer cannot reappear
  unnoticed; only ``CampaignStore`` builds an ``fsync_each`` log.  The
  same walk over ``src/repro`` keeps the test oracles out
  of production code (nothing imports ``tests.``), the FOF pair search
  in one place (``query_pairs`` has one call site), the MBP pair
  potential in one place (``cdist`` has one call site, no hand-built
  ``(rows, n, 3)`` block), the per-halo kernels under one batch driver
  (only ``exec/engine.py`` calls them) and the retry -> requeue ->
  dead-letter ladder in ``repro.faults`` (one budget comparison, one
  retry loop, one exception-to-reason format).

Regenerate the fixtures (only ever from a commit whose format is the
reference) with ``PYTHONPATH=src python tests/test_durable_files.py``.
"""

from __future__ import annotations

import ast
import itertools
import json
import shutil
import time
from pathlib import Path

import pytest

from repro.obs.journal import RunJournal, read_journal
from repro.service.states import JobState
from repro.service.store import JOBS_FILE, CampaignStore, JobSpec

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src" / "repro"

CODE_VERSION = "fixture:seed"
T0 = 1_700_000_000.0
STORE_FINGERPRINT = "122ce81c896b149a4f9c3eb6898b3047fa52e042bfd7051f7e33315c8de592e4"


def _stepping_clock():
    """Frozen-rate clock: every read is 0.25 s after the previous one."""
    ticks = itertools.count()
    return lambda: T0 + 0.25 * next(ticks)


def _write_store(root: Path) -> str:
    """One campaign touching every record kind; returns the fingerprint."""
    store = CampaignStore.create(root, seed=3, extra={"note": "fixture"}, clock=_stepping_clock())
    store.submit_campaign(
        "demo",
        [
            JobSpec(name="ok", params={"i": 0}),
            JobSpec(name="doomed", params={"i": 1}, max_requeues=0),
            JobSpec(name="stranded", params={"i": 2}, n_nodes=2, wall_estimate=2.5),
        ],
        seed=5,
    )
    for state in (
        JobState.STAGED_IN,
        JobState.PREPROCESSED,
        JobState.RUNNING,
        JobState.RUN_DONE,
        JobState.POSTPROCESSED,
    ):
        store.transition("demo.00000", state)
    store.transition("demo.00000", JobState.JOB_FINISHED, result={"halos": 7, "mass": 1.5})
    store.transition("demo.00001", JobState.STAGED_IN)
    store.transition("demo.00001", JobState.FAILED, error="boom")
    store.mark_dead_letter("demo.00001", "requeue budget exhausted after 1 attempts: boom")
    store.transition("demo.00002", JobState.STAGED_IN)  # left in flight: a crash
    fingerprint = store.fingerprint()
    store.close()
    return fingerprint


def _write_run(root: Path) -> None:
    """One run journal touching every record kind the journal itself writes."""
    journal = RunJournal.create(
        root,
        "seed_run",
        config={"workflow": {"kind": "combined", "threshold": 60}, "sim": {"np_per_dim": 20}},
        seeds={"sim": 42, "retry": 0},
        fault_plan={"seed": 7, "sites": {}},
        extra={"note": "fixture"},
    )
    journal.write({"kind": "event", "name": "workflow.start", "t": 1.0, "wall": T0, "level": "info"})
    journal.write({"kind": "span", "name": "sim.step", "t0": 1.0, "t1": 1.5, "span_id": 1})
    journal.write({"kind": "future.kind", "payload": [1, 2, 3]})
    journal.failure({"stage": "offline", "key": "16", "reason": "gave up", "attempts": 3})
    journal.metrics_snapshot({"widgets_total": 3.0}, label="final")
    journal.close(status="ok", degraded=True)


@pytest.fixture
def frozen(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", CODE_VERSION)
    monkeypatch.setattr(time, "time", lambda: T0)


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "lock"
    }


# -- cross-version compatibility -------------------------------------------------


def test_seed_written_store_opens_replays_and_reserializes(tmp_path, frozen):
    assert _write_store(tmp_path / "fresh") == STORE_FINGERPRINT
    assert _files(tmp_path / "fresh") == _files(DATA / "seed_store")

    shutil.copytree(DATA / "seed_store", tmp_path / "old")
    with CampaignStore.open(tmp_path / "old", readonly=True) as view:
        assert view.fingerprint() == STORE_FINGERPRINT
        assert view.jobs["demo.00001"].dead_lettered
    with CampaignStore.open(tmp_path / "old", clock=lambda: T0 + 60.0) as store:
        assert store.recovered_bytes == 0
        assert store.recover() == ["demo.00002"]  # the stranded job rolls back
    # the resumed writer appended one record after the seed's, seq contiguous
    lines = (tmp_path / "old" / JOBS_FILE).read_bytes().splitlines(keepends=True)
    assert b"".join(lines[:-1]) == (DATA / "seed_store" / JOBS_FILE).read_bytes()
    assert json.loads(lines[-1]) == {
        "seq": len(lines) - 1,
        "wall": T0 + 60.0,
        "kind": "job.transition",
        "job": "demo.00002",
        "from": "STAGED_IN",
        "to": "CREATED",
        "attempts": 0,
        "recovery": True,
    }


def test_seed_written_run_opens_replays_and_reserializes(tmp_path, frozen):
    _write_run(tmp_path)
    assert _files(tmp_path / "seed_run") == _files(DATA / "seed_run")

    old = read_journal(DATA / "seed_run")
    new = read_journal(tmp_path / "seed_run")
    assert old.records == new.records and old.manifest == new.manifest
    assert old.complete and not old.truncated and old.corrupt == 0
    assert [r["seq"] for r in old.records] == list(range(7))
    assert old.failures()[0]["key"] == "16" and old.last_metrics() == {"widgets_total": 3.0}

    shutil.copytree(DATA / "seed_run", tmp_path / "old")
    resumed = RunJournal.open(tmp_path / "old")
    assert resumed.manifest == old.manifest
    assert resumed.write({"kind": "event", "name": "resumed"}) == 7
    resumed.close()


# -- architecture guard ------------------------------------------------------------

#: the only places outside ``obs/journal.py`` that may call these, and why
ALLOWED = {
    # per-job product drop: atomic but deliberately un-fsynced (ISSUE 15 scope)
    ("service/worker.py", "_write_product", "os.replace"),
    # GenericIO publish: atomic so a listener never reads a half-written
    # Level 2 file, and deliberately un-fsynced like the product drop
    ("io/genericio.py", "_write_attempt", "os.replace"),
    # the single-writer flock file, never written to
    ("service/store.py", "_acquire_writer_lock", "open-append"),
}


def _calls(tree: ast.AST):
    """Yield ``(enclosing function, ast.Call)`` for every call in ``tree``."""

    def visit(node: ast.AST, func: str):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call):
                yield inner, child
            yield from visit(child, inner)

    yield from visit(tree, "<module>")


def _durable_calls(tree: ast.AST):
    """Yield ``(enclosing function, what)`` for every durable-write call."""
    for inner, call in _calls(tree):
        f = call.func
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "os"
            and f.attr in ("fsync", "fdatasync", "replace", "rename")
        ):
            yield inner, f"os.{f.attr}"
        if isinstance(f, ast.Name) and f.id == "open":
            mode = call.args[1] if len(call.args) > 1 else None
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is not None and not isinstance(mode, ast.Constant):
                yield inner, "open-dynamic-mode"
            elif mode is not None and "a" in str(mode.value):
                yield inner, "open-append"


def _src_trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), filename=str(path))


def test_durable_writes_live_in_one_module():
    found = set()
    for rel, tree in _src_trees():
        if rel == "obs/journal.py":
            continue
        for func, what in _durable_calls(tree):
            found.add((rel, func, what))
    assert found == ALLOWED, (
        "durable-write primitives outside repro/obs/journal.py: "
        f"unexpected {sorted(found - ALLOWED)}, stale allowlist {sorted(ALLOWED - found)} "
        "— use AppendLog / atomic_write_json (ARCHITECTURE.md, Durable files)"
    )


def test_only_the_campaign_store_asks_for_the_fsync_policy():
    """``os.fsync`` is journal.py's alone (``ALLOWED`` holds none), and the
    one log that pays for it is the store's: every other ``AppendLog`` is
    built without ``fsync_each``, so commit scopes cannot change it."""
    sites = set()
    for rel, tree in _src_trees():
        for func, call in _calls(tree):
            # AppendLog(...) or AppendLog.reopen(...)
            f = call.func
            head = f if isinstance(f, ast.Name) else getattr(f, "value", None)
            if getattr(head, "id", None) == "AppendLog" and (
                len(call.args) > 1 or any(kw.arg == "fsync_each" for kw in call.keywords)
            ):
                sites.add((rel, func))
    assert sites == {("service/store.py", "__init__")}


def test_the_guard_sees_each_primitive():
    sample = (
        "import os\n"
        "def w(p, m):\n"
        "    with open(p, 'ab') as fh:\n"
        "        os.fsync(fh.fileno())\n"
        "    open(p, mode='a'); open(p, m); open(p); open(p, 'rb')\n"
        "    os.replace(p, p)\n"
    )
    assert sorted(what for _, what in _durable_calls(ast.parse(sample))) == [
        "open-append", "open-append", "open-dynamic-mode", "os.fsync", "os.replace",
    ]


def test_src_never_imports_the_test_oracles():
    offenders = []
    for rel, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [(rel, n) for n in names if n == "tests" or n.startswith("tests.")]
    assert offenders == []


def test_one_pair_finder_under_every_fof():
    """``link_components`` is the only pair search: a second one (a cell
    grid, another tree query) would have to be cross-validated again."""
    sites = [
        rel
        for rel, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "query_pairs"
    ]
    assert sites == ["analysis/fof.py"]


def _calls_of(names: set[str]):
    """``(file, enclosing function, callee)`` for every ``src`` call of one of ``names``."""
    for rel, tree in _src_trees():
        for func, call in _calls(tree):
            f = call.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if callee in names:
                yield rel, func, callee


def test_one_batch_path_over_the_per_halo_kernels():
    """A batch of per-halo kernels is driven in one place, the exec engine's
    item runners; a second per-halo loop (an algorithm calling the kernel
    itself, a width-one shortcut) would need its own cross-validation."""
    kernels = {"mbp_center_bruteforce", "find_subhalos"}
    defining = ("analysis/centers.py", "analysis/subhalos.py")
    outside = {(rel, func) for rel, func, _ in _calls_of(kernels) if rel not in defining}
    assert outside == {
        ("exec/engine.py", "_run_centers_item"),
        ("exec/engine.py", "_run_subhalos_item"),
    }


def _is_outer_difference(node: ast.AST) -> bool:
    """``a[..., None, :] - b[None, :, :]``: a hand-built pair-difference block."""

    def index(side: ast.AST) -> list[ast.AST]:
        if isinstance(side, ast.Subscript) and isinstance(side.slice, ast.Tuple):
            return side.slice.elts
        return []

    def is_none(n: ast.AST) -> bool:
        return isinstance(n, ast.Constant) and n.value is None

    left, right = index(getattr(node, "left", None)), index(getattr(node, "right", None))
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and len(left) == len(right) == 3
        and is_none(left[1])
        and is_none(right[0])
    )


def _imports_dataparallel(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""] + [alias.name for alias in node.names]
    else:
        return False
    return any("dataparallel" in m.split(".") for m in modules)


def test_one_pair_kernel_under_every_potential():
    """The MBP potential has one spelling: ``cdist`` is called only in
    ``_phi_rows``, which only the row-capped ``_phi_blocked`` (whole halos,
    slab items, subhalo unbinding) reaches; no module builds its own
    ``(rows, n, 3)`` difference block, and the retired portability layer
    is imported nowhere."""
    assert set(_calls_of({"cdist"})) == {("analysis/centers.py", "_phi_rows", "cdist")}
    assert set(_calls_of({"_phi_rows"})) == {("analysis/centers.py", "_phi_blocked", "_phi_rows")}
    broadcasts, imports = [], []
    for rel, tree in _src_trees():
        for node in ast.walk(tree):
            if rel.startswith(("analysis/", "exec/")) and _is_outer_difference(node):
                broadcasts.append((rel, node.lineno))
            if _imports_dataparallel(node):
                imports.append((rel, node.lineno))
    assert broadcasts == []
    assert imports == []


def test_pair_kernel_guard_recognises_what_it_forbids():
    sample = ast.parse(
        "d = pos[s:e, None, :] - pos[None, :, :]\n"
        "d = pos[who][:, None, :] - pos[m][None, :, :]\n"
        "d = pos[i] - coms[j]\n"
        "from ..dataparallel import get_backend\n"
        "import repro.dataparallel.backends\n"
        "from repro import dataparallel\n"
        "from ..analysis import centers\n"
    )
    assert [_is_outer_difference(n) for n in ast.walk(sample) if isinstance(n, ast.BinOp)] == [
        True, True, False,
    ]
    assert [_imports_dataparallel(n) for n in sample.body[3:]] == [True, True, True, False]


# -- one failure ladder ---------------------------------------------------------------


def _ids(node: ast.AST) -> set[str]:
    """Every bare name and attribute name under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _is_error_format(node: ast.AST) -> bool:
    """``f"{type(exc).__name__}: {exc}"`` — the ladder's reason string."""
    return isinstance(node, ast.JoinedStr) and any(
        isinstance(v, ast.FormattedValue)
        and isinstance(v.value, ast.Attribute)
        and v.value.attr == "__name__"
        for v in node.values
    )


def _is_box_call(node: ast.AST) -> bool:
    """``<...>.dead_letter.failed(...)`` / ``.add(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("failed", "add")
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "dead_letter"
    )


def _ladder_forks(tree: ast.AST):
    """Yield a tag for every hand-written rung in ``tree``.

    * ``budget-compare``: a comparison of an attempt count with a requeue
      or retry budget (rung 2's decision);
    * ``retry-loop``: ``for ... in range(<retries | max_attempts>)`` with a
      ``try`` in its body (rung 1, with or without a sleep — RPR009 only
      sees the sleeping kind);
    * ``format-then-box``: one function both formats an exception as the
      ladder's reason string and calls a dead-letter box (rung 1's
      except/format idiom wired straight to rungs 2–3).
    """
    budgets = {"max_requeues", "item_retries", "budget"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and "attempts" in _ids(node) and budgets & _ids(node):
            yield "budget-compare"
        if (
            isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", None) == "range"
            and any(i.endswith("retries") or i == "max_attempts" for i in _ids(node.iter))
            and any(isinstance(n, ast.Try) for n in ast.walk(node))
        ):
            yield "retry-loop"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = list(ast.walk(node))
            if any(map(_is_error_format, inside)) and any(map(_is_box_call, inside)):
                yield "format-then-box"


def test_the_ladder_is_written_once():
    """retry -> requeue -> dead-letter lives in ``repro.faults``: the budget
    decision in ``DeadLetterBox.failed``, the retry loop in
    ``RetryPolicy.run``, the error-to-reason formatting in
    ``RetryPolicy.attempt`` (docs/failures.md, "The ladder")."""
    found = {(rel, what) for rel, tree in _src_trees() for what in _ladder_forks(tree)}
    assert found == {
        ("faults/deadletter.py", "budget-compare"),
        ("faults/retry.py", "retry-loop"),
    }


def test_the_ladder_guard_sees_each_fork():
    sample = (
        "def resolve(self, job):\n"
        "    if job.attempts <= job.max_requeues: requeue(job)\n"
        "    if 1 + self.item_retries > item.attempts: pass\n"
        "def retry_items(self):\n"
        "    for _ in range(self.item_retries):\n"
        "        try: run()\n"
        "        except Exception: pass\n"
        "    for _ in range(self.item_retries): run()\n"
        "def submit(self, step):\n"
        "    try: self.retry.run(go)\n"
        "    except Exception as exc:\n"
        "        self.dead_letter.add(step, f'{type(exc).__name__}: {exc}')\n"
        # a lifecycle-wide handler that hands the reason on is not a fork
        "def run_job(self, job):\n"
        "    try: lifecycle(job)\n"
        "    except Exception as exc: self.resolve(job, f'{type(exc).__name__}: {exc}')\n"
        "def resolve(self, job, error):\n"
        "    if not self.dead_letter.failed(job, 1, 0, error): self.dead_letter.add(job, error)\n"
    )
    assert sorted(_ladder_forks(ast.parse(sample))) == [
        "budget-compare", "budget-compare", "format-then-box", "retry-loop",
    ]  # fmt: skip


if __name__ == "__main__":  # regenerate the fixtures (see the module docstring)
    import os

    os.environ["REPRO_CODE_VERSION"] = CODE_VERSION
    time.time = lambda: T0
    for name in ("seed_store", "seed_run"):
        shutil.rmtree(DATA / name, ignore_errors=True)
    print("store fingerprint:", _write_store(DATA / "seed_store"))
    (DATA / "seed_store" / "lock").unlink()
    _write_run(DATA)
