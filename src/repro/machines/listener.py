"""The co-scheduling "listener" (derived from the Bellerophon scheme).

Paper §3.2: "a 'listener' script ... is set up to run in the background
of the main application in the Titan batch script.  The listener
launches analysis jobs when pre-specified output files are generated by
the main application. ... When a new output file is found the listener
generates a new batch script and input parameters, based on the
timestep of the data and template files, and then submits the new job.
The listener then resumes checking for new data."

:class:`Listener` reproduces that behaviour against a real spool
directory — or, for the in-transit hand-off, against the item names of
a :class:`~repro.machines.staging.StagingArea` (the scan is the only
thing that differs): it polls for products matching a pattern, renders
a batch script from a template (substituting the timestep and data
path), and invokes a submit callback.  It can run synchronously
(:meth:`poll_once` — deterministic, used in workflow simulations and
tests) or in a background thread (:meth:`start`/:meth:`stop` — the live
demo).  Polls are serialised, so the loop thread and the final poll in
:meth:`stop` never hand one product to two jobs.

The poll interval "should be chosen to be much higher than the rate at
which the main code generates new output files"; :attr:`ListenerStats`
tracks pile-up so the ablation bench can show what happens otherwise.

Failure model (see ``docs/failures.md``): each submit runs under a
:class:`~repro.faults.RetryPolicy` (capped exponential backoff with
deterministic seeded jitter; the tree-wide default retries 3 times) at
the ``"listener.submit"`` injection site of the active
:class:`~repro.faults.FaultPlan`.  A submit that exhausts its retries
is accounted and dead-lettered in :attr:`Listener.dead_letter` under its
step, with the real error (the shared failure ladder; no requeue rung —
a file is picked up once), and the poll loop survives, so one bad
snapshot never stops the campaign.
"""

from __future__ import annotations

import fnmatch
import glob
import os
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from string import Template
from typing import Callable

from ..faults import DeadLetterBox, RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder
from .staging import StagingArea

__all__ = ["BatchTemplate", "ListenerStats", "Listener"]

#: Cap on retained per-poll backlog samples (long-running co-scheduled
#: listeners poll forever; unbounded history is a leak).
BACKLOG_HISTORY_LIMIT = 1024

#: Default batch-script template (the fields Bellerophon-style listeners
#: substitute: timestep, data path, node count).
DEFAULT_TEMPLATE = """#!/bin/bash
#PBS -N analysis_step${step}
#PBS -l nodes=${nodes}
cosmotools-driver --input ${data_path} --step ${step}
"""


@dataclass(frozen=True)
class BatchTemplate:
    """Template for generated analysis batch scripts."""

    text: str = DEFAULT_TEMPLATE
    nodes: int = 4

    def render(self, step: int, data_path: str) -> str:
        """Substitute the timestep and data path into the template."""
        return Template(self.text).safe_substitute(
            step=str(step), data_path=data_path, nodes=str(self.nodes)
        )


@dataclass
class ListenerStats:
    """Operational counters for one listener run.

    ``backlog_history`` is a *bounded* deque (the most recent
    ``BACKLOG_HISTORY_LIMIT`` polls); the running aggregates
    (``polls``, ``backlog_total``, ``max_backlog``) cover the whole
    run, so pile-up analysis stays exact even after old samples age
    out of the window.
    """

    polls: int = 0
    files_seen: int = 0
    jobs_submitted: int = 0
    #: submit callbacks that failed every retry attempt (dead-lettered
    #: in ``Listener.dead_letter``; the poll loop survived)
    jobs_failed: int = 0
    #: extra submit attempts made beyond each job's first try
    submit_retries: int = 0
    max_backlog: int = 0
    #: sum of per-poll backlogs over the whole run (for the exact mean)
    backlog_total: int = 0
    #: recent files-discovered-per-poll samples (bounded window)
    backlog_history: deque[int] = field(
        default_factory=lambda: deque(maxlen=BACKLOG_HISTORY_LIMIT)
    )

    def record_backlog(self, n: int) -> None:
        """Record one poll's backlog sample, updating the aggregates."""
        self.backlog_history.append(n)
        self.backlog_total += n
        self.max_backlog = max(self.max_backlog, n)

    @property
    def mean_backlog(self) -> float:
        """Exact whole-run mean files-per-poll (not just the window)."""
        return self.backlog_total / self.polls if self.polls else 0.0


class Listener:
    """Spool watcher that turns new data products into analysis jobs.

    Parameters
    ----------
    watch_dir:
        Spool directory the simulation writes into, or the
        :class:`~repro.machines.staging.StagingArea` it stages into (the
        in-transit hand-off: item names are scanned, and handed to
        ``submit`` in place of paths).
    pattern:
        Glob for the pre-specified output files (e.g. ``l2_step*.gio``).
    submit:
        Callback ``submit(path, step, script_text)`` invoked once per
        new file; typically wraps :class:`~repro.machines.scheduler.Scheduler`
        submission or a local analysis driver.
    poll_interval:
        Seconds between scans in threaded mode.
    template:
        Batch-script template rendered per job.
    step_regex:
        Regex with one integer group extracting the timestep from the
        file name.
    retry:
        :class:`~repro.faults.RetryPolicy` for submit attempts (``None``
        → the tree-wide default: 3 attempts, capped exponential backoff
        with seeded jitter).  Pass ``RetryPolicy(max_attempts=1)`` to
        disable retrying.
    """

    def __init__(
        self,
        watch_dir: str | os.PathLike | StagingArea,
        pattern: str,
        submit: Callable[[str, int, str], None],
        poll_interval: float = 0.2,
        template: BatchTemplate | None = None,
        step_regex: str = r"step(\d+)",
        retry: RetryPolicy | None = None,
    ):
        self.watch_dir = (
            watch_dir if isinstance(watch_dir, StagingArea) else os.fspath(watch_dir)
        )
        self.pattern = pattern
        self.submit = submit
        self.poll_interval = poll_interval
        self.template = template or BatchTemplate()
        self.step_regex = re.compile(step_regex)
        self.retry = resolve_retry(retry)
        self.seen: set[str] = set()
        self.stats = ListenerStats()
        #: submits given up on, keyed by step (the real error as ``reason``)
        self.dead_letter = DeadLetterBox("listener")
        # one poll at a time: stop()'s final poll must not list products the
        # loop thread has found but not yet marked seen (one snapshot, two jobs)
        self._poll_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._trace = None  # TraceContext captured at start()

    # -- synchronous ------------------------------------------------------------

    def poll_once(self) -> list[str]:
        """One scan: submit a job for every new matching file.

        Returns the newly discovered paths — item names when watching a
        staging area — in sorted submission order, so timesteps are
        processed in order.  Each submit runs under
        :attr:`retry` (with ``"listener.submit"`` fault injection per
        attempt); a submit that still fails after every retry is
        dead-lettered (:attr:`dead_letter`) and counts a failed job —
        one bad file must not kill the poll loop (or the silent final
        poll in :meth:`stop`).
        """
        rec = get_recorder()
        with self._poll_lock, rec.span("listener.poll"):
            self.stats.polls += 1
            if isinstance(self.watch_dir, StagingArea):
                found = fnmatch.filter(self.watch_dir.names(), self.pattern)
            else:
                found = sorted(glob.glob(os.path.join(self.watch_dir, self.pattern)))
            fresh = [p for p in found if p not in self.seen]
            self.stats.record_backlog(len(fresh))
            rec.gauge("listener_backlog").set(len(fresh))
            for path in fresh:
                self.seen.add(path)
                self.stats.files_seen += 1
                step = self._extract_step(path)
                script = self.template.render(step=step, data_path=path)
                with rec.span("listener.submit", step=step, path=path):
                    outcome, error = self.retry.attempt(
                        self._submit_attempt, path, step, script, site="listener.submit", key=step
                    )
                    if outcome is not None:
                        self.stats.jobs_submitted += 1
                        self.stats.submit_retries += outcome.attempts - 1
                        rec.counter("listener_jobs_submitted_total").inc()
                    else:
                        assert error is not None  # attempt(): exactly one of the pair
                        attempts = self.retry.max_attempts
                        self.stats.jobs_failed += 1
                        self.stats.submit_retries += attempts - 1
                        # no requeue rung (budget 0): a file is picked up once
                        self.dead_letter.failed(step, attempts, 0, error, step=step, path=path)
                        self.dead_letter.add(step, error, attempts=attempts, path=path)
        return fresh

    def _submit_attempt(self, path: str, step: int, script: str) -> None:
        """One submit attempt (the unit the retry policy repeats)."""
        maybe_inject("listener.submit", key=step)
        self.submit(path, step, script)

    def _extract_step(self, path: str) -> int:
        m = self.step_regex.search(os.path.basename(path))
        if not m:
            raise ValueError(
                f"cannot extract timestep from {path!r} with /{self.step_regex.pattern}/"
            )
        return int(m.group(1))

    # -- threaded ---------------------------------------------------------------

    def start(self) -> None:
        """Run the poll loop in a daemon thread (the backgrounded listener)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("listener already running")
        self._stop.clear()
        # capture the caller's trace context here (inside the driver's
        # workflow.sim span when co-scheduled) so the poll thread's spans
        # parent causally under the span that started the listener
        self._trace = get_recorder().trace_context()
        self._thread = threading.Thread(target=self._loop, name="listener", daemon=True)
        self._thread.start()
        get_recorder().event(
            "listener.started", watch_dir=self.watch_dir, pattern=self.pattern
        )

    def _loop(self) -> None:
        get_recorder().bind_thread(getattr(self, "_trace", None))
        while not self._stop.is_set():
            self.poll_once()
            self._stop.wait(self.poll_interval)

    def stop(self, final_poll: bool = True) -> None:
        """Stop the loop; by default take one last look for late files.

        (Paper: "If the last output files come at the very end of the
        main application's execution time, an additional instance of the
        listener would run after the job completes to catch the last
        output data.")
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if final_poll:
            self.poll_once()
        get_recorder().event(
            "listener.stopped",
            polls=self.stats.polls,
            jobs_submitted=self.stats.jobs_submitted,
            jobs_failed=self.stats.jobs_failed,
        )
