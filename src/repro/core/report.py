"""Text renderers for the paper's tables and figures.

Every benchmark regenerates its table/figure through these helpers so
the printed rows are directly comparable with the paper (EXPERIMENTS.md
records the pairing).
"""

from __future__ import annotations

import numpy as np

from ..obs.report import render_table
from .accounting import WorkflowReport

__all__ = [
    "format_bytes",
    "render_table",
    "table3",
    "table4",
    "figure_histogram",
]


def format_bytes(nbytes: float) -> str:
    """Human-readable byte size (paper-style: GB/TB)."""
    for unit, factor in (("PB", 1e15), ("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if nbytes >= factor:
            return f"{nbytes / factor:.1f} {unit}"
    return f"{nbytes:.0f} B"


def table3(reports: list[WorkflowReport]) -> str:
    """Render Table 3: workflow summary (I/O, redistribution, queueing,
    core hours)."""
    rows = []
    for r in reports:
        s = r.summary()
        rows.append(
            [s["method"], s["io"], s["redistribute"], s["queueing"], s["core_hours"]]
        )
    return render_table(
        ["Method", "I/O", "Redist.", "Queueing", "Core hrs"],
        rows,
        title="Table 3: analysis workflows",
    )


def table4(report: WorkflowReport) -> str:
    """Render one workflow's Table 4 block (per-phase breakdown)."""
    blocks = []
    sim = report.simulation.as_row()
    rows = [
        [
            "Time (sec)",
            f"{sim.get('sim', 0):.0f}",
            f"{sim.get('analysis', 0):.0f}",
            f"{sim.get('write', 0):.1f}",
            f"{sim['total']:.0f}",
        ],
        ["Core hours", "", "", "", f"{report.simulation.core_hours:.0f}"],
    ]
    blocks.append(
        render_table(
            ["Simulation", "Sim", "Analysis", "Write", "Total"],
            rows,
            title=f"=== {report.name} ===",
        )
    )
    for post in report.postprocessing:
        p = post.as_row()
        rows = [
            [
                "Time (sec)",
                f"{p.get('read', 0):.1f}",
                f"{p.get('redistribute', 0):.0f}",
                f"{p.get('analysis', 0):.0f}",
                f"{p.get('write', 0):.2f}",
                f"{p['total']:.0f}",
            ],
            ["Core hours", "", "", "", "", f"{post.core_hours:.1f}"],
        ]
        blocks.append(
            render_table(
                ["Post-processing", "Read", "Redistribute", "Analysis", "Write", "Total"],
                rows,
            )
        )
    blocks.append(f"analysis core-hours (Table 3 convention): {report.analysis_core_hours:.0f}")
    return "\n".join(blocks)


def figure_histogram(
    values: np.ndarray,
    bin_edges: np.ndarray,
    counts: np.ndarray | None = None,
    width: int = 50,
    log_counts: bool = True,
    label: str = "",
) -> str:
    """ASCII histogram (log-scaled bars) for the figure reproductions."""
    if counts is None:
        counts, _ = np.histogram(np.asarray(values, dtype=float), bins=bin_edges)
    lines = [label] if label else []
    cmax = max(counts.max(), 1)
    for lo, hi, c in zip(bin_edges[:-1], bin_edges[1:], counts):
        if log_counts:
            bar = int(np.round(width * np.log10(1 + c) / np.log10(1 + cmax)))
        else:
            bar = int(np.round(width * c / cmax))
        lines.append(f"{lo:>12.3g} - {hi:<12.3g} |{'#' * bar} {c}")
    return "\n".join(lines)
