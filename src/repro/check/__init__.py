"""repro.check — determinism & resource-safety static analyzer + sanitizers.

The repo's core guarantee — bit-identical serial vs. parallel analysis
(:mod:`repro.exec`) feeding the merged Level-3 catalog — rests on
invariants that plain linters do not know about: seeded RNG everywhere,
order-stable float reductions, wall-clock-free kernels, and leak-free
shared-memory lifecycles.  This package enforces them twice over:

* **statically** — an AST-based analyzer with a pluggable rule registry
  (RPR001-RPR010 in :mod:`repro.check.rules`), ``# repro: noqa[...]``
  suppressions, text/JSON reporters, a ``python -m repro.check`` CLI
  (including ``--changed`` for git-diff-scoped runs and ``--rules`` for
  a machine-readable rule listing), and ``[tool.repro-check]``
  configuration in ``pyproject.toml``;
* **at runtime** — opt-in (``REPRO_SANITIZE=1``) sanitizers: the
  :func:`~repro.check.sanitize.guard_kernel` NaN/Inf + dtype-drift
  decorator on the center/SO/subhalo kernels, an atexit shared-memory
  leak tracker wired into :mod:`repro.exec.sharedmem`, the
  :func:`~repro.check.sanitize.check_determinism` run-twice harness,
  and the collective-protocol sanitizer inside
  :class:`repro.parallel.Communicator` (each rank hashes its ordered
  collective sequence; barriers cross-check the digests and fail fast
  naming the diverging rank).

Programmatic use::

    from repro.check import analyze_paths, load_config, find_pyproject

    result = analyze_paths(["src"], load_config(find_pyproject()))
    assert not result.findings, result.findings
"""

from .analyzer import (
    AnalysisResult,
    ModuleContext,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
    module_rel,
)
from .config import CheckConfig, find_pyproject, load_config, path_in_scope
from .findings import Finding
from .reporters import render_json, render_text
from .rules import Rule, all_rules, register_rule
from .sanitize import (
    DeterminismError,
    DeterminismReport,
    SanitizerError,
    check_determinism,
    guard_kernel,
    leak_report,
    output_hash,
    sanitize_enabled,
)

__all__ = [
    "AnalysisResult",
    "CheckConfig",
    "DeterminismError",
    "DeterminismReport",
    "Finding",
    "ModuleContext",
    "Rule",
    "SanitizerError",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "check_determinism",
    "find_pyproject",
    "guard_kernel",
    "iter_python_files",
    "leak_report",
    "load_config",
    "module_rel",
    "output_hash",
    "path_in_scope",
    "register_rule",
    "render_json",
    "render_text",
    "sanitize_enabled",
]
