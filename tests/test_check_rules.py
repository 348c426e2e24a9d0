"""Unit tests for the repro.check static-analysis rules (RPR001-RPR010).

Each rule gets at least one positive fixture (violating source that must
be flagged), one negative fixture (conforming source that must pass),
and a ``# repro: noqa[...]`` suppression check.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.check import CheckConfig, all_rules, analyze_source
from repro.check.config import path_in_scope

ANALYSIS = "analysis/snippet.py"  # path fragment inside the scoped dirs
UNSCOPED = "sim/snippet.py"  # outside RPR002/RPR003 scopes


def run(src: str, rel: str = ANALYSIS, config: CheckConfig | None = None):
    return analyze_source(textwrap.dedent(src), path=f"src/repro/{rel}", rel=rel, config=config)


def codes(src: str, rel: str = ANALYSIS, config: CheckConfig | None = None) -> list[str]:
    return [f.code for f in run(src, rel=rel, config=config).findings]


# -- registry ------------------------------------------------------------------


def test_registry_has_all_ten_rules():
    assert sorted(all_rules()) == [f"RPR{i:03d}" for i in range(1, 11)]


def test_parse_error_reports_rpr000():
    res = analyze_source("def f(:\n", path="broken.py")
    assert [f.code for f in res.findings] == ["RPR000"]
    assert res.exit_code == 1


# -- RPR001: unseeded RNG ------------------------------------------------------


def test_rpr001_unseeded_default_rng():
    src = """
        import numpy as np
        rng = np.random.default_rng()
    """
    assert codes(src) == ["RPR001"]


def test_rpr001_seeded_default_rng_ok():
    src = """
        import numpy as np
        def make(seed: int):
            return np.random.default_rng(seed)
    """
    assert codes(src) == []


def test_rpr001_from_import_alias():
    src = """
        from numpy.random import default_rng
        r = default_rng()
    """
    assert codes(src) == ["RPR001"]


def test_rpr001_legacy_global_rng():
    src = """
        import numpy as np
        np.random.seed(0)
        x = np.random.standard_normal(4)
    """
    assert codes(src) == ["RPR001", "RPR001"]


def test_rpr001_noqa_suppression():
    src = """
        import numpy as np
        rng = np.random.default_rng()  # repro: noqa[RPR001]
    """
    res = run(src)
    assert res.findings == []
    assert res.suppressed == 1


# -- RPR002: unordered accumulation -------------------------------------------


def test_rpr002_set_iteration_accumulation():
    src = """
        def f(xs):
            total = 0.0
            for g in set(xs):
                total += g
            return total
    """
    assert "RPR002" in codes(src)


def test_rpr002_sum_over_set_literal():
    src = """
        def f():
            return sum({1.0, 2.0, 3.0})
    """
    assert "RPR002" in codes(src)


def test_rpr002_sorted_iteration_ok():
    src = """
        def f(xs):
            total = 0.0
            for g in sorted(set(xs)):
                total += g
            return total
    """
    assert codes(src) == []


def test_rpr002_out_of_scope_ignored():
    src = """
        def f(xs):
            total = 0.0
            for g in set(xs):
                total += g
            return total
    """
    assert codes(src, rel=UNSCOPED) == []


# -- RPR003: wall clock in kernels --------------------------------------------


def test_rpr003_perf_counter_in_analysis():
    src = """
        import time
        def kernel(x):
            t = time.perf_counter()
            return x * t
    """
    assert codes(src) == ["RPR003"]


def test_rpr003_allowed_outside_scope():
    src = """
        import time
        def kernel(x):
            return x * time.perf_counter()
    """
    assert codes(src, rel="obs/snippet.py") == []


def test_rpr003_scope_override_via_config():
    cfg = CheckConfig(scopes={"RPR003": ("sim",)})
    src = """
        import time
        t = time.monotonic()
    """
    assert codes(src, rel=UNSCOPED, config=cfg) == ["RPR003"]
    assert codes(src, rel=ANALYSIS, config=cfg) == []


# -- RPR004: float equality ----------------------------------------------------


def test_rpr004_float_literal_equality():
    src = """
        def f(x):
            return x == 0.5
    """
    assert codes(src) == ["RPR004"]


def test_rpr004_int_equality_ok():
    src = """
        def f(x):
            return x == 1
    """
    assert codes(src) == []


def test_rpr004_noqa():
    src = """
        def f(x):
            return x != 0.0  # repro: noqa[RPR004]
    """
    res = run(src)
    assert res.findings == []
    assert res.suppressed == 1


# -- RPR005: shared-memory lifecycle ------------------------------------------


def test_rpr005_unprotected_shared_memory():
    src = """
        from multiprocessing import shared_memory
        def f():
            shm = shared_memory.SharedMemory(create=True, size=16)
            return shm
    """
    assert codes(src) == ["RPR005"]


def test_rpr005_try_finally_ok():
    src = """
        from multiprocessing import shared_memory
        def f():
            shm = shared_memory.SharedMemory(create=True, size=16)
            try:
                return bytes(shm.buf[:4])
            finally:
                shm.close()
                shm.unlink()
    """
    assert codes(src) == []


def test_rpr005_store_create_flagged():
    src = """
        def f(arrays):
            store = SharedParticleStore.create(**arrays)
            return store["pos"]
    """
    assert codes(src) == ["RPR005"]
    # a linear create -> close/unlink with no try leaks if the body raises
    linear = """
        def f(arrays):
            store = SharedParticleStore.create(**arrays)
            total = float(store["pos"].sum())
            store.close()
            store.unlink()
            return total
    """
    assert codes(linear) == ["RPR005"]


# -- RPR006: silent broad except ----------------------------------------------


def test_rpr006_silent_swallow():
    src = """
        def f():
            try:
                risky()
            except Exception:
                pass
    """
    assert codes(src) == ["RPR006"]


def test_rpr006_telemetry_emission_ok():
    src = """
        def f(rec):
            try:
                risky()
            except Exception as exc:
                rec.event("boom", level="error", error=str(exc))
    """
    assert codes(src) == []


def test_rpr006_reraise_ok():
    src = """
        def f():
            try:
                risky()
            except Exception:
                raise
    """
    assert codes(src) == []


# -- RPR007: mutable default args ---------------------------------------------


def test_rpr007_list_default():
    src = """
        def f(x, acc=[]):
            acc.append(x)
            return acc
    """
    assert codes(src) == ["RPR007"]


def test_rpr007_none_default_ok():
    src = """
        def f(x, acc=None):
            return acc
    """
    assert codes(src) == []


# -- RPR008: span outside with ------------------------------------------------


def test_rpr008_manual_span_lifecycle():
    src = """
        def f(rec):
            s = rec.span("phase")
            s.__enter__()
    """
    found = codes(src)
    assert found.count("RPR008") == 2


def test_rpr008_with_statement_ok():
    src = """
        def f(rec):
            with rec.span("phase"):
                pass
    """
    assert codes(src) == []


def test_rpr008_return_forwarding_ok():
    src = """
        class R:
            def span(self, name):
                return self.tracer.span(name)
    """
    assert codes(src) == []


# -- RPR009: hand-rolled sleep/retry loops ------------------------------------


def test_rpr009_sleep_retry_loop_flagged():
    src = """
        import time

        def fetch(submit):
            while True:
                try:
                    return submit()
                except OSError:
                    time.sleep(1.0)
    """
    assert codes(src) == ["RPR009"]


def test_rpr009_for_loop_with_backoff_flagged():
    src = """
        import time

        def fetch(submit):
            for attempt in range(3):
                try:
                    return submit()
                except OSError:
                    time.sleep(2 ** attempt)
    """
    assert codes(src) == ["RPR009"]


def test_rpr009_plain_poll_loop_ok():
    """Sleeping in a loop without exception handling is a poll loop,
    not a shadow retry mechanism."""
    src = """
        import time

        def poll(ready):
            while not ready():
                time.sleep(0.1)
    """
    assert codes(src) == []


def test_rpr009_try_without_sleep_ok():
    src = """
        def drain(q):
            while True:
                try:
                    q.get_nowait()
                except Exception:
                    raise
    """
    assert codes(src) == []


def test_rpr009_injected_sleep_callable_ok():
    """RetryPolicy's own pattern: the sleeper is injected, so the loop
    does not resolve to time.sleep."""
    src = """
        import time

        def run(fn, do_sleep=None):
            do_sleep = time.sleep if do_sleep is None else do_sleep
            for attempt in range(3):
                try:
                    return fn()
                except Exception as exc:
                    do_sleep(0.01)
    """
    assert codes(src, config=CheckConfig(select=("RPR009",))) == []


def test_rpr009_nested_function_owns_its_statements():
    """A try/sleep inside a nested def is not attributed to the outer
    loop (the nested function is judged on its own — and without a loop
    of its own it is not a retry loop)."""
    src = """
        import time

        def outer(items):
            for item in items:
                def handler():
                    try:
                        item()
                    except Exception:
                        time.sleep(0.1)
                handler()
    """
    assert codes(src, config=CheckConfig(select=("RPR009",))) == []


# -- select / ignore / scoping helpers ----------------------------------------


def test_select_limits_rules():
    cfg = CheckConfig(select=("RPR004",))
    src = """
        import numpy as np
        rng = np.random.default_rng()
        ok = 1.0 == 2.0
    """
    assert codes(src, config=cfg) == ["RPR004"]


def test_ignore_drops_rule():
    cfg = CheckConfig(ignore=("RPR001",))
    src = """
        import numpy as np
        rng = np.random.default_rng()
    """
    assert codes(src, config=cfg) == []


@pytest.mark.parametrize(
    ("rel", "scopes", "expected"),
    [
        ("analysis/sph.py", ("analysis",), True),
        ("exec/engine.py", ("analysis",), False),
        ("exec/engine.py", (), True),
        ("a/b/analysis/x.py", ("analysis",), True),
        ("analysis/sph.py", ("*",), True),
    ],
)
def test_path_in_scope(rel, scopes, expected):
    assert path_in_scope(rel, scopes) is expected


# -- RPR010: print() in library code ------------------------------------------


def test_rpr010_library_print_flagged():
    src = """
        def load(path):
            print("loading", path)
            return path
    """
    assert codes(src) == ["RPR010"]


def test_rpr010_stderr_print_flagged_too():
    src = """
        import sys

        def warn(msg):
            print(msg, file=sys.stderr)
    """
    assert codes(src) == ["RPR010"]


def test_rpr010_cli_modules_exempt():
    src = """
        def main():
            print("usage: ...")
    """
    assert codes(src, rel="obs/cli.py") == []
    assert codes(src, rel="check/__main__.py") == []


def test_rpr010_shadowed_print_ok():
    """A local function named print is not the builtin."""
    src = """
        from mylog import print

        def f():
            print("routed elsewhere")
    """
    assert codes(src) == []


def test_rpr010_noqa_suppression():
    src = """
        def f():
            print("intentional")  # repro: noqa[RPR010]
    """
    res = run(src)
    assert res.findings == []
    assert res.suppressed == 1


def test_blanket_noqa_suppresses_everything_on_line():
    src = """
        import numpy as np
        bad = np.random.default_rng() if 1.0 == 2.0 else None  # repro: noqa
    """
    res = run(src)
    assert res.findings == []
    assert res.suppressed == 2
