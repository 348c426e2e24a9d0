"""The metric inventory in docs/observability.md matches what src/ emits.

Every counter or gauge name in ``src/`` has a row naming its reader, and
every row still has its metric.  Durations are spans: no metric kind
holds seconds.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs import PEAK_RSS_GAUGE, MetricsRegistry, NullRecorder, TelemetryRecorder

REPO = Path(__file__).resolve().parents[1]

#: ``rec.counter("name"`` / ``.gauge(f"{self.source}_x_total"``, possibly
#: with the name on the next line.
_EMIT = re.compile(r"\.(?:counter|gauge)\(\s*(f?)\"([^\"]+)\"")


def _emitted() -> set[str]:
    names = {PEAK_RSS_GAUGE}
    for path in (REPO / "src").rglob("*.py"):
        for fstring, name in _EMIT.findall(path.read_text(encoding="utf-8")):
            names.add(re.sub(r"\{[^}]*\}", "<source>", name) if fstring else name)
    return names


def _inventory() -> set[str]:
    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    section = doc.split("## Metric inventory", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_every_emitted_metric_has_an_inventory_row_and_back():
    emitted, listed = _emitted(), _inventory()
    assert emitted - listed == set(), "emitted without an inventory row"
    assert listed - emitted == set(), "inventory rows with no metric left"


def test_no_metric_measures_time():
    assert not [n for n in _emitted() if n.endswith("_seconds")]
    for owner in (MetricsRegistry, TelemetryRecorder, NullRecorder):
        assert not hasattr(owner, "histogram")
