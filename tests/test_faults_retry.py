"""RetryPolicy: backoff shape properties + execution semantics."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryError,
    RetryPolicy,
    default_retry,
    fault_plan,
    resolve_retry,
)


# -- construction --------------------------------------------------------------


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_delay=0.001, base_delay=0.01)
    with pytest.raises(ValueError):
        RetryPolicy(attempt_timeout=0.0)


def test_jitter_must_keep_delays_monotone():
    # jitter > multiplier - 1 could reorder consecutive delays
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=2.0, jitter=1.5)
    RetryPolicy(multiplier=2.0, jitter=1.0)  # boundary is allowed


def test_resolve_retry_defaults():
    assert resolve_retry(None) is default_retry()
    custom = RetryPolicy(max_attempts=5)
    assert resolve_retry(custom) is custom


# -- backoff shape (property-tested) -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    base=st.floats(min_value=1e-4, max_value=0.1),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    jitter_frac=st.floats(min_value=0.0, max_value=1.0),
    cap_factor=st.floats(min_value=1.0, max_value=100.0),
    attempts=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_delays_are_monotone_and_capped(
    base, multiplier, jitter_frac, cap_factor, attempts, seed
):
    """For any valid policy the delay sequence is non-decreasing and
    never exceeds max_delay — the guarantee docs/failures.md promises."""
    policy = RetryPolicy(
        max_attempts=attempts,
        base_delay=base,
        multiplier=multiplier,
        max_delay=base * cap_factor,
        jitter=jitter_frac * (multiplier - 1.0),
        seed=seed,
    )
    delays = policy.delays(key="k")
    assert len(delays) == attempts - 1
    assert all(d <= policy.max_delay + 1e-12 for d in delays)
    assert all(b >= a - 1e-12 for a, b in zip(delays, delays[1:]))


def test_delays_are_deterministic_per_seed_and_key():
    a = RetryPolicy(seed=3, max_attempts=6).delays(key="step7")
    b = RetryPolicy(seed=3, max_attempts=6).delays(key="step7")
    c = RetryPolicy(seed=4, max_attempts=6).delays(key="step7")
    assert a == b
    assert a != c


# -- execution semantics -------------------------------------------------------


def _flaky(failures, exc=RuntimeError):
    """A callable that fails ``failures`` times, then returns 'ok'."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc(f"boom {state['calls']}")
        return "ok"

    fn.state = state
    return fn


def test_first_try_success_makes_no_retries():
    outcome = RetryPolicy(max_attempts=3).run(_flaky(0), sleep=lambda d: None)
    assert outcome.value == "ok"
    assert outcome.attempts == 1
    assert not outcome.retried
    assert outcome.total_delay == 0.0


def test_transient_failure_is_absorbed():
    outcome = RetryPolicy(max_attempts=3).run(_flaky(2), sleep=lambda d: None)
    assert outcome.value == "ok"
    assert outcome.attempts == 3
    assert outcome.retried


def test_exhaustion_reraises_the_last_real_exception():
    fn = _flaky(99, exc=OSError)
    with pytest.raises(OSError, match="boom 3"):
        RetryPolicy(max_attempts=3).run(fn, sleep=lambda d: None)
    assert fn.state["calls"] == 3


def test_non_retryable_errors_propagate_immediately():
    fn = _flaky(99, exc=KeyError)
    with pytest.raises(KeyError):
        RetryPolicy(max_attempts=3).run(fn, retryable=(OSError,), sleep=lambda d: None)
    assert fn.state["calls"] == 1


def test_attempt_timeout_raises_retry_error():
    policy = RetryPolicy(max_attempts=2, attempt_timeout=0.01, base_delay=0.0)

    def slow():
        time.sleep(0.03)
        return "late"

    with pytest.raises(RetryError) as exc_info:
        policy.run(slow, site="staging.get", sleep=lambda d: None)
    assert exc_info.value.site == "staging.get"


def test_sleep_receives_the_deterministic_delays():
    slept = []
    policy = RetryPolicy(max_attempts=4, seed=1)
    with pytest.raises(RuntimeError):
        policy.run(_flaky(99), key="j", sleep=slept.append)
    assert slept == policy.delays(key="j")


def test_max_attempts_one_disables_retrying():
    fn = _flaky(99)
    with pytest.raises(RuntimeError):
        RetryPolicy(max_attempts=1).run(fn, sleep=lambda d: None)
    assert fn.state["calls"] == 1


def test_retry_absorbs_injected_transient_fault():
    """The canonical pairing: fail_first=1 at a site, the default policy
    succeeds on attempt 2."""
    plan = FaultPlan(seed=0, sites={"listener.submit": FaultSpec(fail_first=1)})

    def attempt():
        from repro.faults import maybe_inject

        maybe_inject("listener.submit", key=12)
        return "submitted"

    with fault_plan(plan):
        outcome = RetryPolicy(max_attempts=3).run(
            attempt, site="listener.submit", key=12, sleep=lambda d: None
        )
    assert outcome.value == "submitted"
    assert outcome.attempts == 2
    assert plan.total_injected == 1


def test_retry_telemetry_counters_and_events():
    from repro.faults import maybe_inject

    with obs.telemetry(run_id="retry-telemetry") as rec:
        RetryPolicy(max_attempts=3).run(_flaky(1), site="io.write", sleep=lambda d: None)
        with pytest.raises(FaultInjected):
            with fault_plan(FaultPlan(seed=0, sites={"s": FaultSpec(always=True)})):
                RetryPolicy(max_attempts=2).run(
                    maybe_inject,
                    "s",
                    site="s",
                    retryable=(FaultInjected,),
                    sleep=lambda d: None,
                )
        names = [e.name for e in rec.events.snapshot()]
        span_names = {s.name for s in rec.tracer.snapshot()}
        assert rec.metrics.counter("retries_total").value == 2
        assert rec.metrics.counter("retry_exhausted_total").value == 1
        assert rec.metrics.counter("faults_injected_total").value == 2
    assert "retry.backoff" in names
    assert "retry.exhausted" in names
    assert "fault.injected" in names
    assert "retry.attempt" in span_names


def test_attempt_reports_exhaustion_instead_of_raising():
    """Rung 1 of the failure ladder: ``run()`` with the last error handed
    back as the ``"Type: message"`` reason the next rungs take."""
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
    outcome, error = policy.attempt(_flaky(2), site="s", key="k")
    assert (outcome.value, outcome.attempts, error) == ("ok", 3, None)
    with obs.telemetry(run_id="attempt") as rec:
        outcome, error = policy.attempt(_flaky(5, exc=ValueError), site="s", key="k")
    assert (outcome, error) == (None, "ValueError: boom 3")
    # run() did the telling: the caller's handler has nothing left to emit
    assert [e.name for e in rec.events.snapshot()] == ["retry.backoff"] * 2 + ["retry.exhausted"]
    with pytest.raises(KeyboardInterrupt):  # not an error to account: it propagates
        policy.attempt(_flaky(1, exc=KeyboardInterrupt), site="s", key="k")
