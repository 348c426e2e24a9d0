"""FaultPlan: seeded, site-keyed, bit-reproducible injection verdicts."""

import threading

import pytest

from repro.faults import (
    KNOWN_SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_plan,
    get_fault_plan,
    load_plan,
    maybe_inject,
    reset_fault_plan,
    seeded_uniform,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    """Each test starts and ends with no plan installed."""
    set_fault_plan(None)
    yield
    set_fault_plan(None)


# -- seeded_uniform ------------------------------------------------------------


def test_seeded_uniform_is_pure_and_in_range():
    a = seeded_uniform(7, "listener.submit", "12", 0)
    b = seeded_uniform(7, "listener.submit", "12", 0)
    assert a == b
    assert 0.0 <= a < 1.0


def test_seeded_uniform_varies_with_each_argument():
    base = seeded_uniform(7, "site", "k", 0)
    assert seeded_uniform(8, "site", "k", 0) != base
    assert seeded_uniform(7, "other", "k", 0) != base
    assert seeded_uniform(7, "site", "k2", 0) != base
    assert seeded_uniform(7, "site", "k", 1) != base


# -- FaultSpec validation ------------------------------------------------------


def test_spec_rejects_bad_probability():
    with pytest.raises(ValueError):
        FaultSpec(probability=1.5)


def test_spec_rejects_bad_mode():
    with pytest.raises(ValueError):
        FaultSpec(mode="explode")


def test_spec_roundtrips_through_dict():
    spec = FaultSpec(probability=0.25, fail_first=2, keys=(3, "x"), max_total=9)
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    assert spec.keys == ("3", "x")  # keys normalized to strings


# -- verdicts ------------------------------------------------------------------


def test_fail_first_is_transient_per_key():
    plan = FaultPlan(seed=1, sites={"listener.submit": FaultSpec(fail_first=1)})
    assert plan.should_fail("listener.submit", key=5) is not None
    assert plan.should_fail("listener.submit", key=5) is None  # retry succeeds
    assert plan.should_fail("listener.submit", key=6) is not None  # fresh key
    assert plan.snapshot() == {"listener.submit": 2}


def test_always_is_a_permanent_outage():
    plan = FaultPlan(seed=1, sites={"offline.job": FaultSpec(always=True)})
    for _ in range(4):
        assert plan.should_fail("offline.job", key=0) is not None


def test_probability_verdicts_are_order_independent():
    """The hash-based verdict for (site, key, attempt) does not depend on
    how many other decisions were drawn first — the bit-reproducibility
    property under thread interleaving."""
    spec = {"storage.write": FaultSpec(probability=0.5)}
    forward = FaultPlan(seed=11, sites=dict(spec))
    backward = FaultPlan(seed=11, sites=dict(spec))
    keys = [str(k) for k in range(40)]
    verdict_fwd = {k: forward.should_fail("storage.write", key=k) is not None for k in keys}
    verdict_bwd = {
        k: backward.should_fail("storage.write", key=k) is not None
        for k in reversed(keys)
    }
    assert verdict_fwd == verdict_bwd
    assert 0 < sum(verdict_fwd.values()) < len(keys)  # p=0.5 actually splits


def test_keys_filter_restricts_injection():
    plan = FaultPlan(seed=1, sites={"io.read": FaultSpec(always=True, keys=("a",))})
    assert plan.should_fail("io.read", key="a") is not None
    assert plan.should_fail("io.read", key="b") is None


def test_max_total_caps_injections():
    plan = FaultPlan(seed=1, sites={"io.write": FaultSpec(always=True, max_total=2)})
    hits = sum(plan.should_fail("io.write", key=k) is not None for k in range(10))
    assert hits == 2
    assert plan.total_injected == 2


def test_unknown_site_never_fires():
    plan = FaultPlan(seed=1, sites={"listener.submit": FaultSpec(always=True)})
    assert plan.should_fail("storage.read", key=0) is None


def test_reset_restores_verdicts():
    plan = FaultPlan(seed=3, sites={"s": FaultSpec(fail_first=1)})
    first = [plan.should_fail("s", key=0) is not None for _ in range(3)]
    plan.reset()
    again = [plan.should_fail("s", key=0) is not None for _ in range(3)]
    assert first == again == [True, False, False]


def test_fresh_copy_reproduces_verdicts():
    plan = FaultPlan(seed=9, sites={"s": FaultSpec(probability=0.3)})
    before = [plan.should_fail("s", key=k) is not None for k in range(20)]
    after = [plan.fresh().should_fail("s", key=k) is not None for k in range(20)]
    # fresh() resets per-key attempt state, so attempt-0 verdicts agree
    assert before == after


def test_sequence_mode_keys_each_call():
    """key=None numbers the calls at the site — seeded flakiness for
    call sites that have no natural key."""
    plan = FaultPlan(seed=5, sites={"s": FaultSpec(probability=0.5)})
    run1 = [plan.should_fail("s") is not None for _ in range(30)]
    rerun = plan.fresh()
    run2 = [rerun.should_fail("s") is not None for _ in range(30)]
    assert run1 == run2
    assert 0 < sum(run1) < 30


def test_thread_interleaving_does_not_change_the_fault_set():
    spec = {"exec.item": FaultSpec(probability=0.4)}
    plan = FaultPlan(seed=13, sites=dict(spec))
    hits: set[str] = set()
    lock = threading.Lock()

    def worker(keys):
        for k in keys:
            if plan.should_fail("exec.item", key=k) is not None:
                with lock:
                    hits.add(k)

    keys = [str(k) for k in range(64)]
    threads = [threading.Thread(target=worker, args=(keys[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    serial = {
        k for k in keys if FaultPlan(seed=13, sites=dict(spec)).should_fail("exec.item", key=k)
    }
    assert hits == serial


# -- plan (de)serialization and the process-wide hook --------------------------


def test_plan_roundtrips_through_json(tmp_path):
    plan = FaultPlan(
        seed=42,
        sites={
            "listener.submit": FaultSpec(fail_first=1),
            "staging.get": FaultSpec(mode="stall", stall_seconds=0.01),
        },
    )
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = load_plan(path)
    assert loaded.seed == plan.seed
    assert loaded.sites == plan.sites


def test_env_hook_installs_plan(tmp_path, monkeypatch):
    path = tmp_path / "plan.json"
    FaultPlan(seed=2, sites={"io.read": FaultSpec(always=True)}).save(path)
    monkeypatch.setenv("REPRO_FAULTS", str(path))
    reset_fault_plan()  # re-arm the env hook
    try:
        plan = get_fault_plan()
        assert plan is not None and plan.seed == 2
        with pytest.raises(FaultInjected):
            maybe_inject("io.read", key="x")
    finally:
        monkeypatch.delenv("REPRO_FAULTS")
        reset_fault_plan()


def test_maybe_inject_is_noop_without_plan():
    maybe_inject("listener.submit", key=0)  # must not raise


def test_fault_plan_context_scopes_and_restores():
    outer = FaultPlan(seed=1)
    set_fault_plan(outer)
    inner = FaultPlan(seed=2, sites={"s": FaultSpec(always=True)})
    with fault_plan(inner):
        assert get_fault_plan() is inner
        with pytest.raises(FaultInjected) as exc_info:
            maybe_inject("s", key="k")
        assert exc_info.value.site == "s"
        assert exc_info.value.key == "k"
    assert get_fault_plan() is outer


def test_known_sites_cover_the_documented_hops():
    assert "listener.submit" in KNOWN_SITES
    assert "offline.job" in KNOWN_SITES
    assert "stream.read" in KNOWN_SITES
    assert "service.job" in KNOWN_SITES
    assert len(KNOWN_SITES) == len(set(KNOWN_SITES)) == 10
