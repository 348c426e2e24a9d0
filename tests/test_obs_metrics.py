"""repro.obs.metrics: counters, gauges, exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry


def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_is_shared_by_name():
    reg = MetricsRegistry()
    reg.counter("x").inc(2)
    reg.counter("x").inc(3)
    assert reg.counter("x").value == 5
    assert len(reg) == 1


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    reg.gauge("y")
    with pytest.raises(TypeError):
        reg.counter("y")


def test_gauge_watermarks():
    reg = MetricsRegistry()
    g = reg.gauge("backlog")
    g.set(3)
    g.set(10)
    g.set(1)
    g.dec()
    assert g.value == 0
    assert g.max == 10
    assert g.min == 0


def test_counter_concurrent_inc():
    c = MetricsRegistry().counter("jobs_total")
    n, threads = 5000, 4

    def worker():
        for _ in range(n):
            c.inc()

    ts = [threading.Thread(target=worker) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert c.value == n * threads


def test_text_exposition_format():
    reg = MetricsRegistry()
    reg.counter("io_write_bytes_total", help="payload bytes written").inc(1024)
    reg.gauge("listener_backlog").set(3)
    text = reg.render_text()
    assert "# HELP io_write_bytes_total payload bytes written" in text
    assert "# TYPE io_write_bytes_total counter" in text
    assert "io_write_bytes_total 1024" in text
    assert "# TYPE listener_backlog gauge" in text
    assert "listener_backlog 3" in text


def test_as_dict_is_one_value_per_name():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.gauge("g").set(7)
    reg.gauge("g").set(4)
    assert reg.as_dict() == {"c": 2, "g": 4}


def test_sample_memory_sets_the_peak_rss_gauge():
    from repro import obs
    from repro.obs import PEAK_RSS_GAUGE, sample_memory

    reg = MetricsRegistry()
    peak = sample_memory(reg)
    assert peak > 0  # a running interpreter has a nonzero high-water mark
    gauge = reg.gauge(PEAK_RSS_GAUGE)
    assert gauge.value == peak
    # ru_maxrss is a kernel high-water mark: monotone within one process
    assert sample_memory(reg) >= peak
    assert PEAK_RSS_GAUGE == "process_peak_rss_bytes"
    # without a registry it goes through the recorder facade; with the
    # default NullRecorder that must be a safe no-op
    assert sample_memory() >= peak
