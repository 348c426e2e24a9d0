"""repro.faults — deterministic fault injection and resilience.

The failure model for the whole combined workflow (see
``docs/failures.md`` and ``ARCHITECTURE.md``):

* **Injection** — a seeded :class:`FaultPlan` decides, reproducibly
  from a single seed, whether any attempt at a named workflow hop
  (listener submit, staging transfer, GenericIO read/write,
  scheduler payload, exec work item) fails or stalls.  Off by default;
  enable per-run with :func:`fault_plan` / :func:`set_fault_plan`, or
  process-wide with ``REPRO_FAULTS=<plan.json>``.
* **Resilience** — one failure ladder, each rung written once: retry
  in place (:meth:`RetryPolicy.attempt`: capped exponential backoff,
  deterministic seeded jitter, per-attempt timeout), requeue while a
  budget lasts (:meth:`DeadLetterBox.failed` — scheduler jobs, service
  jobs; listener submits and exec items pass a budget of 0), dead-letter
  and carry on (:meth:`DeadLetterBox.add`); graceful degradation in
  :func:`repro.core.run_combined_workflow` (``degraded=True`` +
  in-situ-only catalog instead of raising).
* **Accounting** — bounded :class:`DeadLetterBox` lists for terminal
  failures, plus ``faults_injected_total`` / ``retries_total`` /
  ``dead_letter_total`` counters and their per-source mirrors,
  ``retry.attempt`` spans, and the failure section of
  :class:`repro.obs.RunTelemetry`.

Quick use::

    from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_plan

    plan = FaultPlan(seed=7, sites={
        "listener.submit": FaultSpec(fail_first=1),        # transient
        "offline.job": FaultSpec(probability=0.10),        # flaky
    })
    with fault_plan(plan):
        result = run_combined_workflow(..., retry=RetryPolicy(max_attempts=4))
    print(result.degraded, result.failures, plan.snapshot())
"""

from .deadletter import DEAD_LETTER_LIMIT, DeadLetterBox, DeadLetterEntry
from .plan import (
    KNOWN_SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_plan,
    get_fault_plan,
    load_plan,
    maybe_inject,
    reset_fault_plan,
    seeded_uniform,
    set_fault_plan,
)
from .retry import RetryError, RetryOutcome, RetryPolicy, default_retry, resolve_retry

__all__ = [
    "DEAD_LETTER_LIMIT",
    "DeadLetterBox",
    "DeadLetterEntry",
    "KNOWN_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryError",
    "RetryOutcome",
    "RetryPolicy",
    "default_retry",
    "fault_plan",
    "get_fault_plan",
    "load_plan",
    "maybe_inject",
    "reset_fault_plan",
    "resolve_retry",
    "seeded_uniform",
    "set_fault_plan",
]
