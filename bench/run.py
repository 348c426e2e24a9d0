#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the whole reproduction.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1|both] [--out FILE] [--quick]
    python3 bench/run.py --compare A B

Runs the workloads named in ``BENCHMARK.json`` (all of them unless
``--workload`` picks one), each in a fresh subprocess with a pinned
environment, verifies every product, prints every metric by name with
its unit, and ends with one JSON object on the last line of standard
output.  ``bench/README.md`` has the tables: workloads, metrics, which
layer metric should move which end-to-end metric.

This file is only the launcher: it imports nothing heavy, so the child
(``bench/harness.py``) owns the whole measured process.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the contract allows a run 180 s; leave room to report a timeout
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_env() -> dict[str, str]:
    """The child's environment: the noise-relevant settings held fixed."""
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_SPMD_TRANSPORT", "REPRO_SANITIZE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("MALLOC_MMAP_THRESHOLD_", None)  # see bench/README.md, "Deviations"
    # keeps store manifests from shelling out to git
    env["REPRO_CODE_VERSION"] = "bench"
    return env


def filesystem_type(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if os.path.commonpath([path, mount]) == mount and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def commit_id() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def run_child(cfg: dict[str, Any]) -> dict[str, Any] | None:
    """One workload in its own session; never leaves a process behind."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "harness.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        text=True,
        env=pinned_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{cfg['workload']}: no result within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        out = ""
    finally:
        try:  # rank processes or pool workers a crashed child left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(
            f"{cfg['workload']}: child printed no result (exit {proc.returncode})",
            file=sys.stderr,
        )
        return None


def contract_result(run: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The object the benchmark contract wants, checked against BENCHMARK.json.

    Every declared metric of the pass is present.  A layer the workload
    never enters reads 0 (no time spent, nothing counted); an end-to-end
    metric may not be missing.
    """
    declared = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(run["metrics"]) - set(units))
    if undeclared:
        raise SystemExit(f"{run['workload']}: metrics not in BENCHMARK.json: {undeclared}")
    metrics = {}
    for name, unit in units.items():
        if name in run["metrics"]:
            value = run["metrics"][name]["value"]
        elif run["trace"]:
            value = 0.0
        else:
            run["correct"] = False
            continue
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(run["correct"]),
        "attempted": max(int(run["attempted"]), 1),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }


def print_run(run: dict[str, Any], spec: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    its = run["iterations"]
    print(
        f"\n== {run['workload']}  seed={run['seed']}  trace={run['trace']}  "
        f"{run['size']}  iterations={its['untraced']}+{its['traced']} traced  "
        f"failed={run['failed']}/{run['attempted']}  {run['info']}"
    )
    for name, m in run["metrics"].items():
        spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}" if m["n"] > 1 else ""
        print(f"  {name:36s} {m['value']:>14.6g} {units.get(name, '?'):8s}{spread}")
    if run["trace"]:
        print(f"  ({len(run['spans'])} benchmark spans recorded)")


# -- compare -------------------------------------------------------------------------


#: ``--compare``'s bounds.  ``BENCHMARK.json`` can carry one bound per metric,
#: which has to admit the noisiest workload; a steadier workload is held to
#: the tighter bound here (bench/README.md, "Bounds", has the spreads).
_WALL = {"sim-bound-64": 0.08, "analysis-bound-48": 0.10, "stream-1m": 0.15, "campaign-2k": 0.10}
ROW_BOUNDS: dict[str, dict[str, float]] = {
    "wall_s": _WALL,
    "work_per_s": _WALL,
    "peak_rss_mb": {"sim-bound-64": 0.05, "analysis-bound-48": 0.05, "campaign-2k": 0.05},
}


def load_runs(path: str) -> list[dict[str, Any]]:
    """Untraced runs of one side: a ``--out`` file, or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            runs += [r for r in json.load(fh)["runs"] if not r["trace"]]
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range over the median, as the benchmark contract takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """Per workload and end-to-end metric: medians, ratio, bound, verdict.

    The spread is the interquartile range over the median of a side's runs.
    One run has no spread, so a row with a single run on either side is
    ``unresolved``, whatever its ratio.
    """
    sides = [load_runs(path_a), load_runs(path_b)]
    worse = 0
    print(
        f"{'workload':18s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
        f"{'bound':>6s} {'spread':>7s}  verdict"
    )
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name = m["name"]
            bound = ROW_BOUNDS.get(name, {}).get(wl, m["bound"])
            vals = [
                [
                    r["metrics"][name]["value"]
                    for r in side
                    if r["workload"] == wl and name in r["metrics"]
                ]
                for side in sides
            ]
            if not vals[0] or not vals[1]:
                continue
            med_a, med_b = statistics.median(vals[0]), statistics.median(vals[1])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worsening = sign * (med_b - med_a) / med_a
            if min(len(v) for v in vals) < 2:
                widest, verdict = float("nan"), "unresolved (one run)"
            else:
                widest = max(spread(v) for v in vals)
                every_b_better = all(sign * (b - a) < 0 for a in vals[0] for b in vals[1])
                if widest > bound and not every_b_better:
                    verdict = "unresolved"
                elif worsening > bound:
                    verdict = "worse"
                    worse += 1
                else:
                    verdict = "ok"
            print(
                f"{wl:18s} {name:12s} {med_a:12.5g} {med_b:12.5g} {med_b / med_a:7.3f} "
                f"{bound:6.2f} {widest:7.3f}  {verdict}  "
                f"(base {med_a:.5g} {m['unit']}, n={len(vals[0])}+{len(vals[1])})"
            )
    return 1 if worse else 0


# -- main ----------------------------------------------------------------------------


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    ap.add_argument(
        "--trace",
        choices=("0", "1", "both"),
        default="0",
        help="0: end-to-end pass, 1: per-layer pass, both: one after the other",
    )
    ap.add_argument("--quick", action="store_true", help="self-check scale, two iterations")
    ap.add_argument("--out", help="write the runs to this JSON file (replacing it)")
    ap.add_argument("--workdir", help="scratch directory (default: fresh under bench/out)")
    ap.add_argument("--sabotage", action="store_true", help="corrupt one product (must fail)")
    ap.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="two --out files, or directories of them"
    )
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to measure", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(spec["run_seconds"])
    own_workdir = args.workdir is None
    if own_workdir:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    else:
        workdir = os.path.abspath(args.workdir)
        os.makedirs(workdir, exist_ok=True)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "filesystem": filesystem_type(workdir),
        "commit": commit_id(),
        "REPRO_PM_WORKERS": os.environ.get("REPRO_PM_WORKERS", "unset"),
        "scale": "quick" if args.quick else "full",
    }
    print("environment:", json.dumps(env))

    runs, results = [], {}
    try:
        for wl in [args.workload] if args.workload else names:
            for trace in (0, 1) if args.trace == "both" else (int(args.trace),):
                scratch = tempfile.mkdtemp(prefix=f"{wl}-", dir=workdir)
                run = run_child(
                    {
                        "workload": wl,
                        "seed": args.seed,
                        "seconds": seconds,
                        "trace": bool(trace),
                        "quick": args.quick,
                        "sabotage": args.sabotage,
                        "workdir": scratch,
                    }
                )
                shutil.rmtree(scratch, ignore_errors=True)
                if run is None:
                    return 1
                run["env"] = dict(env, **run.pop("env", {}))
                results[f"{wl}/trace{trace}"] = contract_result(run, spec)
                print_run(run, spec)
                runs.append(run)
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    print()
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
