"""Child side of the benchmark: one workload in one fresh interpreter.

``bench/run.py`` launches this file once per workload (pinned
environment, own session) with a JSON configuration as its only
argument, and reads one JSON object from the last line of its standard
output.  Everything here is closed-loop and single-client: the next
iteration starts only when the previous one has returned a verified
product.

The set-up clock starts at the first line of this module — before the
heavy imports — so ``setup_s`` covers imports, input generation,
reference products and the warm-up.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Iterator  # noqa: E402


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Kernel high-water RSS of this process (or its reaped children), MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def summary(values: list[float]) -> dict[str, float]:
    """Median with quartiles and sample count (the printed ``q1/q3/n``)."""
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def timed_median(fn: Any, repeats: int) -> float:
    """Median seconds of ``repeats`` calls of ``fn()``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


class Spans:
    """Benchmark-owned spans: name, start, end, parent, workload id.

    Kept in memory and handed to the launcher when the run ends.  Only
    the benchmark's main thread opens spans, so the parent stack needs
    no lock.  While ``enabled`` is false :meth:`span` records nothing —
    the untraced iterations run the same code with spans off.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.rows: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        row = {
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name`` (0 when none ran)."""
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0


def measure(wl: Any, seconds: float, trace: bool, sabotage: bool) -> dict[str, Any]:
    """Set up ``wl``, loop it for ``seconds``, and assemble the result.

    Untraced: every iteration runs with spans off and feeds the
    end-to-end metrics.  Traced: iterations alternate spans off / on
    (their ratio is the span overhead) and the layer replays follow.
    """
    spans = Spans(wl.name)
    problems: list[str] = []
    reference = wl.setup()
    setup_s = time.perf_counter() - _T0

    walls: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    t_loop = time.perf_counter()
    i = 0
    while True:
        spans.enabled = trace and i % 2 == 1
        attempted += wl.ops
        try:
            with spans.span("workload.iteration"):
                wall, product = wl.run_once(spans)
            if sabotage and i == 0:
                wl.sabotage(product)
            bad_ops, found = wl.verify(product, reference)
            if reference is None and not found:
                reference = wl.reference_of(product)  # later iterations must agree
        except Exception:  # an iteration that raises is a failed operation
            bad_ops, found = wl.ops, [traceback.format_exc()]
        if found:
            failed += max(bad_ops, 1)
            problems += [f"iteration {i}: {p}" for p in found]
        else:
            walls[spans.enabled].append(wall)
        i += 1
        if time.perf_counter() - t_loop >= seconds and i >= (2 if trace else 1):
            break
    spans.enabled = trace

    metrics: dict[str, Any] = {}
    if not walls[False] or (trace and not walls[True]):
        problems.append("no iteration produced a verified product")
    elif not trace:
        metrics = {
            "setup_s": summary([setup_s]),
            "wall_s": summary(walls[False]),
            "work_per_s": summary([wl.units / w for w in walls[False]]),
            "peak_rss_mb": summary([peak_rss_mb()]),
        }
    else:
        wall_s = statistics.median(walls[False])
        try:
            layers = wl.layers(spans, wall_s, reference)
        except Exception:
            layers = {}
            failed += 1
            problems.append("layer replay: " + traceback.format_exc())
        layers["obs.span_overhead_frac"] = statistics.median(walls[True]) / wall_s - 1.0
        layers["faults.retries"] = wl.retries
        layers["faults.dead_letters"] = wl.dead_letters
        metrics = {k: summary([float(v)]) for k, v in layers.items()}
    wl.teardown()
    return {
        "workload": wl.name,
        "size": wl.size,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_samples": walls[False] + walls[True],
        "metrics": metrics,
        "problems": problems,
        "info": wl.info,
        "spans": spans.rows,
    }


def environment() -> dict[str, Any]:
    """What the measured process actually ran with (recorded beside the numbers)."""
    import numpy
    import scipy
    from repro.sim.pmsolver import resolve_fft_workers

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pm_workers_resolved": resolve_fft_workers(),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg.get("helper") == "stream-setup":
        from workloads import stream_setup_helper

        print(json.dumps(stream_setup_helper(cfg)))
        return 0
    from workloads import make_workload

    wl = make_workload(cfg["workload"], cfg["seed"], cfg["workdir"], cfg["quick"])
    result = measure(wl, cfg["seconds"], cfg["trace"], cfg["sabotage"])
    result["seed"] = cfg["seed"]
    result["trace"] = int(cfg["trace"])
    result["env"] = environment()
    for p in result["problems"]:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # run the importable copy, so that workloads.py's ``from harness import``
    # and this entry point share one module (and one ``_T0``)
    import harness

    sys.exit(harness.main())
