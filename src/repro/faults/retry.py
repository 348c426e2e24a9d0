"""The shared :class:`RetryPolicy`: capped exponential backoff with
deterministic seeded jitter.

One policy object serves every retryable hop in the workflow — listener
submits, stager transfers, GenericIO reads/writes, scheduler payloads —
so the backoff behaviour (and its knobs) is documented once and tested
once.  Three properties the test suite enforces:

* **Deterministic jitter.**  The jitter for attempt *k* of a keyed call
  is :func:`~repro.faults.plan.seeded_uniform`\\ ``(seed, "retry", key, k)``
  — a pure hash, so two runs back off identically.
* **Monotone, capped delays.**  ``delay(k) = min(base · mult^k ·
  (1 + jitter·u_k), max_delay)``.  With ``jitter ≤ mult − 1`` (enforced)
  the sequence is monotone non-decreasing and never exceeds
  ``max_delay`` (property-tested with hypothesis).
* **Last-error transparency.**  On exhaustion the *last real exception*
  is re-raised (so callers keep catching the types they already catch);
  :class:`RetryError` is raised only for per-attempt deadline
  violations, which have no underlying exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .plan import seeded_uniform

__all__ = ["RetryError", "RetryOutcome", "RetryPolicy", "default_retry", "resolve_retry"]


class RetryError(RuntimeError):
    """All attempts failed (or an attempt exceeded its deadline)."""

    def __init__(self, message: str, attempts: int = 0, site: str = "") -> None:
        super().__init__(message)
        self.attempts = attempts
        self.site = site


@dataclass(frozen=True)
class RetryOutcome:
    """What one retried call did (:meth:`RetryPolicy.run`'s return)."""

    value: Any
    attempts: int  # total attempts made (1 = first try succeeded)
    total_delay: float  # seconds slept between attempts

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total tries, first included (``1`` disables retrying).
    base_delay, multiplier, max_delay:
        Backoff shape: attempt *k* (0-based) waits
        ``min(base_delay · multiplier^k · (1 + jitter·u_k), max_delay)``.
    jitter:
        Jitter amplitude as a fraction of the raw delay, drawn
        deterministically per ``(seed, key, attempt)``.  Must satisfy
        ``jitter ≤ multiplier − 1`` so delays stay monotone.
    seed:
        Jitter seed (same seed ⇒ same delays, run to run).
    attempt_timeout:
        Per-attempt deadline in seconds; an attempt that returns after
        longer counts as failed (``None`` disables).
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter <= self.multiplier - 1.0 + 1e-12:
            raise ValueError(
                f"jitter must be in [0, multiplier-1] = [0, {self.multiplier - 1.0}] "
                "to keep backoff delays monotone non-decreasing"
            )
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    # -- backoff shape ---------------------------------------------------------

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff delay after 0-based ``attempt`` (deterministic)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = self.base_delay * self.multiplier**attempt
        u = seeded_uniform(self.seed, "retry", key, attempt)
        return min(raw * (1.0 + self.jitter * u), self.max_delay)

    def delays(self, key: str = "") -> list[float]:
        """Every backoff delay this policy can sleep (``max_attempts - 1``)."""
        return [self.delay(k, key=key) for k in range(self.max_attempts - 1)]

    # -- execution -------------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        site: str = "retry",
        key: Any = "",
        retryable: tuple[type[BaseException], ...] = (Exception,),
        sleep: Callable[[float], None] | None = None,
        **kwargs: Any,
    ) -> RetryOutcome:
        """Call ``fn`` under this policy; returns a :class:`RetryOutcome`.

        ``site``/``key`` label telemetry (``retry.attempt`` spans,
        ``retry.backoff`` events) and seed the jitter.  Only exceptions
        matching ``retryable`` are retried; anything else propagates
        immediately.  On exhaustion the last exception is re-raised
        (:class:`RetryError` if the failures were deadline violations).
        """
        from ..obs import get_recorder

        rec = get_recorder()
        do_sleep = time.sleep if sleep is None else sleep
        key_s = str(key)
        last: BaseException | None = None
        total_delay = 0.0
        for attempt in range(self.max_attempts):
            with rec.span("retry.attempt", site=site, key=key_s, attempt=attempt):
                t0 = time.monotonic()
                try:
                    value = fn(*args, **kwargs)
                except retryable as exc:
                    last = exc
                else:
                    elapsed = time.monotonic() - t0
                    if self.attempt_timeout is not None and elapsed > self.attempt_timeout:
                        last = RetryError(
                            f"{site} attempt {attempt} took {elapsed:.3f}s "
                            f"(> deadline {self.attempt_timeout}s)",
                            attempts=attempt + 1,
                            site=site,
                        )
                    else:
                        return RetryOutcome(
                            value=value, attempts=attempt + 1, total_delay=total_delay
                        )
            if attempt + 1 < self.max_attempts:
                d = self.delay(attempt, key=key_s)
                rec.counter(
                    "retries_total", help="retry attempts made after a failed first try"
                ).inc()
                rec.event(
                    "retry.backoff",
                    level="warning",
                    site=site,
                    key=key_s,
                    attempt=attempt,
                    delay=round(d, 6),
                    error=f"{type(last).__name__}: {last}",
                )
                total_delay += d
                if d > 0:
                    do_sleep(d)
        rec.counter(
            "retry_exhausted_total", help="retried calls that failed every attempt"
        ).inc()
        rec.event(
            "retry.exhausted",
            level="warning",
            site=site,
            key=key_s,
            attempts=self.max_attempts,
            error=f"{type(last).__name__}: {last}",
        )
        assert last is not None  # max_attempts >= 1 guarantees an attempt ran
        raise last

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        site: str = "retry",
        key: Any = "",
        retryable: tuple[type[BaseException], ...] = (Exception,),
        sleep: Callable[[float], None] | None = None,
        **kwargs: Any,
    ) -> Any:
        """:meth:`run`, returning only the call's value."""
        return self.run(
            fn, *args, site=site, key=key, retryable=retryable, sleep=sleep, **kwargs
        ).value

    def attempt(
        self, fn: Callable[..., Any], *args: Any, site: str, key: Any
    ) -> tuple[RetryOutcome | None, str | None]:
        """Rung 1 of the failure ladder: :meth:`run` that reports, not raises.

        ``(outcome, None)`` on success; ``(None, "Type: message")`` once
        every attempt failed — the ``reason`` the next rungs
        (:meth:`DeadLetterBox.failed`, then ``add``) take.  Every
        exception is retryable here, so one that comes back has been
        through :meth:`run`'s exhaustion path.
        """
        try:
            return self.run(fn, *args, site=site, key=key), None
        except Exception as exc:  # repro: noqa[RPR006] - run() emitted retry.exhausted
            return None, f"{type(exc).__name__}: {exc}"


#: The tree-wide default: 3 attempts, 5 ms → 20 ms backoff, 250 ms cap.
_DEFAULT = RetryPolicy()


def default_retry() -> RetryPolicy:
    """The shared default policy (what ``retry=None`` resolves to)."""
    return _DEFAULT


def resolve_retry(policy: RetryPolicy | None) -> RetryPolicy:
    """``None`` → the default policy; otherwise the given policy."""
    return _DEFAULT if policy is None else policy
