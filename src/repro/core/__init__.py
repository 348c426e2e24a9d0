"""The paper's primary contribution: the combined workflow engine.

Workload profiling, the automated in-situ/off-line split planner, the
five workflow strategies with full time/core-hour accounting, and
table/figure renderers.
"""

from .accounting import FailureRecord, JobLedger, Phase, WorkflowReport
from .driver import (
    CombinedRunResult,
    centers_from_level2_arrays,
    offline_center_job,
    run_combined_workflow,
)
from .planner import SplitPlan, lpt_assign, plan_split
from .report import figure_histogram, format_bytes, render_table, table3, table4
from .strategies import (
    CombinedWorkflow,
    InSituOnlyWorkflow,
    OfflineOnlyWorkflow,
    WorkflowStrategy,
    evaluate_all,
)
from .workload import (
    WorkloadProfile,
    profile_from_context,
    qcontinuum_like_profile,
    synthetic_halo_catalog,
    test_run_like_profile,
)

__all__ = [
    "CombinedRunResult",
    "centers_from_level2_arrays",
    "offline_center_job",
    "run_combined_workflow",
    "FailureRecord",
    "JobLedger",
    "Phase",
    "WorkflowReport",
    "SplitPlan",
    "lpt_assign",
    "plan_split",
    "figure_histogram",
    "format_bytes",
    "render_table",
    "table3",
    "table4",
    "CombinedWorkflow",
    "InSituOnlyWorkflow",
    "OfflineOnlyWorkflow",
    "WorkflowStrategy",
    "evaluate_all",
    "WorkloadProfile",
    "profile_from_context",
    "qcontinuum_like_profile",
    "synthetic_halo_catalog",
    "test_run_like_profile",
]
