"""repro: combined in-situ and co-scheduling workflow framework.

A full reproduction of "Large-Scale Compute-Intensive Analysis via a
Combined In-Situ and Co-Scheduling Workflow Approach" (SC '15): a
mini-HACC cosmological N-body simulation, the CosmoTools in-situ
analysis framework, portable data-parallel analysis algorithms
(FOF halo finding, MBP center finding, subhalos, spherical-overdensity
masses, power spectra), a simulated facility layer (Titan / Rhea /
Moonlight, batch scheduler, co-scheduling listener), and the workflow
strategies the paper compares.

Quick start::

    from repro.core import run_combined_workflow
    from repro.sim import SimulationConfig

    result = run_combined_workflow(
        SimulationConfig(np_per_dim=24, box=48.0, n_steps=20),
        spool_dir="/tmp/spool", threshold=500,
    )
    print(len(result.catalog), "halo centers")

Subpackages
-----------
``repro.sim``          mini-HACC N-body simulation (Level 1 producer)
``repro.parallel``     in-process SPMD substrate (MPI stand-in)
``repro.analysis``     halo analysis algorithms
``repro.insitu``       CosmoTools framework (InSituAlgorithm/Manager)
``repro.io``           GenericIO-style files, data levels, catalogs
``repro.machines``     facility simulation (cost model, scheduler, listener)
``repro.core``         the combined workflow engine (the contribution)
``repro.obs``          unified telemetry (events, spans, metrics, reports)
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "insitu",
    "io",
    "machines",
    "obs",
    "parallel",
    "sim",
]
