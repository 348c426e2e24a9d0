"""Facility layer: machines, cost model, scheduler, listener."""

import os
import threading
import time

import numpy as np
import pytest

from repro.machines import (
    BatchTemplate,
    CostModel,
    Job,
    Listener,
    MOONLIGHT,
    PAPER_CALIBRATION,
    QueuePolicy,
    RHEA,
    Scheduler,
    TITAN,
)

# --- machines -------------------------------------------------------------------


def test_titan_charge_policy():
    """Paper: "an hour per node leads to a charge of 30 core hours"."""
    assert TITAN.core_hours(3600.0, 1) == pytest.approx(30.0)
    assert TITAN.core_hours(722.0, 32) == pytest.approx(193.0, rel=0.01)  # Table 3


def test_machine_node_limit():
    with pytest.raises(ValueError):
        MOONLIGHT.core_hours(60.0, MOONLIGHT.n_nodes + 1)


def test_queue_wait_monotone_in_size():
    w_small = TITAN.queue.expected_wait(4, TITAN.n_nodes)
    w_big = TITAN.queue.expected_wait(TITAN.n_nodes, TITAN.n_nodes)
    assert w_big > 10 * w_small
    assert w_big == pytest.approx(TITAN.queue.full_machine_wait_seconds)


def test_titan_small_job_policy():
    assert TITAN.queue.max_concurrent_small(100) == 2
    assert TITAN.queue.max_concurrent_small(125) is None


def test_rhea_has_no_gpu():
    assert not RHEA.has_gpu
    assert MOONLIGHT.gpu_factor == pytest.approx(0.55)


# --- cost model -----------------------------------------------------------------


def test_paper_anchor_sim_time():
    """1024³ x 60 steps on 32 nodes ≈ 772 s (Table 4)."""
    t = PAPER_CALIBRATION.sim_seconds(1024**3, 60, 32)
    assert t == pytest.approx(772.0, rel=0.05)


def test_paper_anchor_level1_io():
    """38.7 GB Level 1 write/read on 32 nodes ≈ 5 s (Table 4)."""
    t = PAPER_CALIBRATION.io_seconds(1024**3 * 36, 32)
    assert t == pytest.approx(5.0, rel=0.05)


def test_paper_anchor_redistribute():
    """Level 1 redistribution on 32 nodes ≈ 435 s (Table 4)."""
    t = PAPER_CALIBRATION.redistribute_seconds(1024**3 * 36, 32)
    assert t == pytest.approx(435.0, rel=0.05)


def test_paper_anchor_largest_halo_centering():
    """The 2.5M-particle halo costs ~422 s on one Titan GPU node (the
    722-300 split of the in-situ analysis)."""
    pairs = 2_548_321 * (2_548_321 - 1)
    t = PAPER_CALIBRATION.center_seconds(pairs, TITAN, backend="gpu")
    assert t == pytest.approx(422.0, rel=0.05)


def test_gpu_cpu_factor_fifty():
    pairs = 1e12
    gpu = PAPER_CALIBRATION.center_seconds(pairs, TITAN, backend="gpu")
    cpu = PAPER_CALIBRATION.center_seconds(pairs, TITAN, backend="cpu")
    assert cpu / gpu == pytest.approx(50.0)


def test_moonlight_055_factor():
    pairs = 1e12
    titan = PAPER_CALIBRATION.center_seconds(pairs, TITAN, backend="gpu")
    ml = PAPER_CALIBRATION.center_seconds(pairs, MOONLIGHT, backend="gpu")
    assert titan / ml == pytest.approx(0.55)


def test_gpu_on_cpu_machine_raises():
    with pytest.raises(ValueError):
        PAPER_CALIBRATION.pair_rate(RHEA, backend="gpu")


def test_io_aggregate_cap():
    """At Q Continuum scale reads hit the Lustre cap: 20 TB in ~10 min."""
    t = PAPER_CALIBRATION.io_seconds(8192**3 * 36, 16384)
    assert t == pytest.approx(566.0, rel=0.1)


def test_calibration_helpers():
    m = CostModel().with_anchor_fof(1024**3 / 32, 300.0)
    assert m.fof_seconds(1024**3 / 32) == pytest.approx(300.0)
    m2 = CostModel().with_anchor_sim(1000, 10, 2, 50.0)
    assert m2.sim_seconds(1000, 10, 2) == pytest.approx(50.0)


def test_subhalo_cost_model_superlinear():
    m = PAPER_CALIBRATION
    small = m.subhalo_seconds(np.asarray([10_000]))
    big = m.subhalo_seconds(np.asarray([100_000]))
    assert big > 10 * small


# --- scheduler -------------------------------------------------------------------


def _machine(nodes=10, small=None, cap=None):
    from repro.machines import MachineSpec

    return MachineSpec(
        name="toy",
        n_nodes=nodes,
        cores_per_node=1,
        charge_factor=1.0,
        has_gpu=True,
        queue=QueuePolicy(small_job_nodes=small, max_small_jobs=cap),
    )


def test_scheduler_serial_when_capacity_bound():
    s = Scheduler(_machine(nodes=4))
    a = s.submit(Job("a", n_nodes=4, duration=10))
    b = s.submit(Job("b", n_nodes=4, duration=10))
    assert s.run() == pytest.approx(20.0)
    assert a.start_time == 0.0 and b.start_time == 10.0


def test_scheduler_parallel_when_fits():
    s = Scheduler(_machine(nodes=8))
    s.submit(Job("a", n_nodes=4, duration=10))
    s.submit(Job("b", n_nodes=4, duration=10))
    assert s.run() == pytest.approx(10.0)


def test_scheduler_dependencies():
    s = Scheduler(_machine())
    sim = s.submit(Job("sim", n_nodes=2, duration=100))
    post = s.submit(Job("post", n_nodes=2, duration=50, after=[sim]))
    s.run()
    assert post.start_time >= sim.end_time
    assert post.queue_wait == pytest.approx(0.0)


def test_scheduler_submit_times_respected():
    s = Scheduler(_machine())
    j = s.submit(Job("late", n_nodes=1, duration=5, submit_time=42.0))
    s.run()
    assert j.start_time == pytest.approx(42.0)


def test_scheduler_ties_start_in_submission_order():
    """FIFO by (submit time, submission order) on a tie-heavy queue: the
    stable sort gives what an explicit ``(submit_time, index)`` key would."""
    rng = np.random.default_rng(5)
    s = Scheduler(_machine(nodes=1))
    times = rng.integers(0, 4, 200)  # ~50 jobs per distinct submit time
    jobs = [
        s.submit(Job(f"j{i}", n_nodes=1, duration=1.0, submit_time=float(t)))
        for i, t in enumerate(times)
    ]
    assert s.run() == pytest.approx(200.0)  # one node: strictly serial
    started = [j.name for j in sorted(jobs, key=lambda j: j.start_time)]
    assert started == [f"j{i}" for i in sorted(range(200), key=lambda i: (times[i], i))]


def test_titan_small_job_rule_limits_concurrency():
    """Only two sub-threshold jobs may run simultaneously."""
    s = Scheduler(_machine(nodes=100, small=10, cap=2))
    jobs = [s.submit(Job(f"j{i}", n_nodes=1, duration=10)) for i in range(4)]
    makespan = s.run()
    # 4 jobs, pairwise: 2 waves of 10 s
    assert makespan == pytest.approx(20.0)
    running_at_5 = sum(1 for j in jobs if j.start_time <= 5 < j.end_time)
    assert running_at_5 == 2


def test_large_jobs_unconstrained_by_small_rule():
    s = Scheduler(_machine(nodes=100, small=10, cap=2))
    jobs = [s.submit(Job(f"j{i}", n_nodes=20, duration=10)) for i in range(4)]
    assert s.run() == pytest.approx(10.0)


def test_scheduler_job_validation():
    s = Scheduler(_machine(nodes=4))
    with pytest.raises(ValueError):
        s.submit(Job("big", n_nodes=5, duration=1))
    with pytest.raises(ValueError):
        s.submit(Job("zero", n_nodes=0, duration=1))
    with pytest.raises(ValueError):
        s.submit(Job("neg", n_nodes=1, duration=-1))


def test_coscheduling_overlaps_with_producer():
    """Analysis jobs submitted while the 'simulation' runs finish far
    earlier than a single job queued after it — the co-scheduling win."""
    sim_duration = 100.0
    n_snaps = 10
    per_job = 8.0

    cosched = Scheduler(_machine(nodes=4))
    for i in range(n_snaps):
        cosched.submit(
            Job(f"a{i}", n_nodes=1, duration=per_job, submit_time=(i + 1) * 10.0)
        )
    t_cosched = cosched.run()

    t_after = sim_duration + n_snaps * per_job / 4  # one 4-node job after
    assert t_cosched < t_after + sim_duration  # overlap reduces time-to-science
    assert t_cosched == pytest.approx(108.0)  # last snapshot at 100 + 8


# --- listener ---------------------------------------------------------------------


def test_listener_poll_once_detects_new_files(tmp_path):
    calls = []
    listener = Listener(tmp_path, "l2_step*.gio", lambda p, s, t: calls.append((p, s)))
    assert listener.poll_once() == []
    (tmp_path / "l2_step0007.gio").write_bytes(b"x")
    fresh = listener.poll_once()
    assert len(fresh) == 1
    assert calls[0][1] == 7
    # no duplicate submission on next poll
    assert listener.poll_once() == []
    assert listener.stats.jobs_submitted == 1


def test_listener_processes_in_step_order(tmp_path):
    steps = []
    listener = Listener(tmp_path, "l2_step*.gio", lambda p, s, t: steps.append(s))
    for s in (12, 3, 7):
        (tmp_path / f"l2_step{s:04d}.gio").write_bytes(b"x")
    listener.poll_once()
    assert steps == [3, 7, 12]
    assert listener.stats.max_backlog == 3


def test_listener_renders_batch_template(tmp_path):
    scripts = []
    listener = Listener(
        tmp_path,
        "l2_step*.gio",
        lambda p, s, t: scripts.append(t),
        template=BatchTemplate(nodes=4),
    )
    (tmp_path / "l2_step0042.gio").write_bytes(b"x")
    listener.poll_once()
    assert "nodes=4" in scripts[0]
    assert "--step 42" in scripts[0]
    assert "l2_step0042.gio" in scripts[0]


def test_listener_bad_filename_raises(tmp_path):
    listener = Listener(tmp_path, "*.gio", lambda *a: None)
    (tmp_path / "nostep.gio").write_bytes(b"x")
    with pytest.raises(ValueError):
        listener.poll_once()


def test_listener_threaded_catches_files_during_run(tmp_path):
    hits = []
    listener = Listener(
        tmp_path, "l2_step*.gio", lambda p, s, t: hits.append(s), poll_interval=0.02
    )
    listener.start()
    with pytest.raises(RuntimeError):
        listener.start()  # double start rejected
    try:
        for s in range(3):
            (tmp_path / f"l2_step{s:04d}.gio").write_bytes(b"x")
            time.sleep(0.05)
    finally:
        listener.stop(final_poll=True)
    assert sorted(hits) == [0, 1, 2]
    assert listener.stats.polls >= 3


def test_listener_final_poll_catches_last_file(tmp_path):
    """Paper: an extra listener pass after the run catches late output."""
    hits = []
    listener = Listener(tmp_path, "l2_step*.gio", lambda p, s, t: hits.append(s))
    listener.start()
    listener.stop(final_poll=False)
    (tmp_path / "l2_step0099.gio").write_bytes(b"x")  # lands after stop
    listener.stop(final_poll=True)
    assert hits == [99]


def test_overlapping_polls_submit_each_file_once(tmp_path):
    """stop()'s final poll can run while the loop thread is still inside a
    slow submit: it must not pick up files that poll already listed."""
    entered, release = threading.Event(), threading.Event()
    calls = []

    def submit(path, step, script):
        calls.append(step)
        if len(calls) == 1:  # the first job blocks until released
            entered.set()
            release.wait(5.0)

    listener = Listener(tmp_path, "l2_step*.gio", submit)
    for s in (1, 2):
        (tmp_path / f"l2_step{s:04d}.gio").write_bytes(b"x")
    first = threading.Thread(target=listener.poll_once)
    first.start()
    assert entered.wait(5.0)
    second = threading.Thread(target=listener.poll_once)
    second.start()
    second.join(timeout=0.2)  # unserialised, it would submit step 2 meanwhile
    release.set()
    first.join(timeout=5.0)
    second.join(timeout=5.0)
    assert not first.is_alive() and not second.is_alive()
    assert sorted(calls) == [1, 2]
    assert listener.stats.jobs_submitted == listener.stats.files_seen == 2


# --- listener resilience + bounded stats ------------------------------------------


def test_listener_survives_failing_submit(tmp_path):
    """One bad job must not kill the poll loop (or lose later files)."""
    ok = []

    def submit(path, step, script):
        if step == 1:
            raise RuntimeError("qsub rejected the job")
        ok.append(step)

    listener = Listener(tmp_path, "l2_step*.gio", submit)
    for s in (0, 1, 2):
        (tmp_path / f"l2_step{s:04d}.gio").write_bytes(b"x")
    fresh = listener.poll_once()
    assert len(fresh) == 3  # the poll completed despite the failure
    assert ok == [0, 2]
    assert listener.stats.jobs_submitted == 2
    assert listener.stats.jobs_failed == 1
    assert listener.stats.files_seen == 3


def test_listener_failed_submit_records_error_event(tmp_path):
    from repro import obs

    def submit(path, step, script):
        raise ValueError("bad template")

    with obs.telemetry(run_id="fail-test") as rec:
        listener = Listener(tmp_path, "l2_step*.gio", submit)
        (tmp_path / "l2_step0005.gio").write_bytes(b"x")
        listener.poll_once()
    # the ladder's rung 2 (accounting) then rung 3 (the listener's box)
    failed, dead = rec.events.by_level("error")
    assert failed.name == "listener.job_failed"
    assert failed.step == 5
    assert failed.fields["path"].endswith("l2_step0005.gio")
    assert "bad template" in failed.fields["error"]
    assert dead.name == "dead_letter"
    assert (dead.fields["source"], dead.fields["key"]) == ("listener", "5")
    assert rec.metrics.counter("listener_jobs_failed_total").value == 1
    assert listener.stats.jobs_failed == 1
    [entry] = listener.dead_letter.entries()
    assert (entry.key, entry.reason, entry.attempts) == ("5", "ValueError: bad template", 3)


def test_listener_final_poll_flags_failures_without_raising(tmp_path):
    """stop(final_poll=True) must not blow up on a failing late submit."""

    def submit(path, step, script):
        raise RuntimeError("late failure")

    listener = Listener(tmp_path, "l2_step*.gio", submit, poll_interval=0.01)
    listener.start()
    listener.stop(final_poll=False)
    (tmp_path / "l2_step0099.gio").write_bytes(b"x")
    listener.stop(final_poll=True)  # no raise
    assert listener.stats.jobs_failed == 1
    assert listener.stats.jobs_submitted == 0


def test_listener_backlog_history_is_bounded(tmp_path):
    from repro.machines.listener import BACKLOG_HISTORY_LIMIT

    listener = Listener(tmp_path, "l2_step*.gio", lambda *a: None)
    n_polls = BACKLOG_HISTORY_LIMIT + 500
    for _ in range(n_polls):
        listener.poll_once()
    assert listener.stats.polls == n_polls
    assert len(listener.stats.backlog_history) == BACKLOG_HISTORY_LIMIT
    assert listener.stats.backlog_total == 0
    # aggregates stay exact even after samples age out of the window
    (tmp_path / "l2_step0000.gio").write_bytes(b"x")
    (tmp_path / "l2_step0001.gio").write_bytes(b"x")
    listener.poll_once()
    assert listener.stats.max_backlog == 2
    assert listener.stats.backlog_total == 2
    assert listener.stats.mean_backlog == pytest.approx(2 / (n_polls + 1))
