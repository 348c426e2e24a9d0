"""Simulated HPC facilities — the paper's §2/§3.2 machine layer.

Five modules, one per facility concern (guide: ``docs/machines.md``):

* :mod:`~repro.machines.machine` — Titan/Rhea/Moonlight specs and queue
  policies (including Titan's ≤2-small-jobs rule);
* :mod:`~repro.machines.cost` — the calibrated cost model mapping
  workload quantities to projected paper-scale seconds (Tables 2–4);
* :mod:`~repro.machines.scheduler` — discrete-event batch scheduler
  with capacity + policy constraints, deadlines, requeue, dead-letter;
* :mod:`~repro.machines.listener` — the Bellerophon-style co-scheduling
  listener that turns new Level 2 files into analysis-job submissions;
* :mod:`~repro.machines.staging` — the Level 2 device the hand-off goes
  through: a spool directory, or the hypothetical in-transit NVRAM
  staging area.

The campaign service (:mod:`repro.service`) builds on this layer: its
packer prices jobs with the cost model and its facade submits packed
allocations through the scheduler.
"""

from .cost import CostModel, PAPER_CALIBRATION
from .listener import BatchTemplate, Listener, ListenerStats
from .machine import MOONLIGHT, MachineSpec, QueuePolicy, RHEA, TITAN
from .scheduler import Job, Scheduler
from .staging import Level2Device, SpoolDirectory, StagingArea, level2_device

__all__ = [
    "CostModel",
    "PAPER_CALIBRATION",
    "BatchTemplate",
    "Listener",
    "ListenerStats",
    "MOONLIGHT",
    "MachineSpec",
    "QueuePolicy",
    "RHEA",
    "TITAN",
    "Job",
    "Scheduler",
    "Level2Device",
    "SpoolDirectory",
    "StagingArea",
    "level2_device",
]
