"""Data-level hierarchy (Level 1 / 2 / 3) and size accounting (Table 1).

The paper describes HACC's data hierarchy:

* **Level 1** — raw output: all particles (36 bytes each) or grids.
* **Level 2** — products of analysis over all Level 1 data: halo
  particles (particles in halos above the off-load threshold), density
  fields, particle subsamples.  Volume reduction of ~5x for the Q
  Continuum threshold choice.
* **Level 3** — further-derived products: halo centers and properties,
  mass functions, catalogs.  Tiny compared to Level 2.

This module carries both the schemas and the analytic size model used
to regenerate Table 1 at 1024³ and 8192³ scale from ratios measured on
our small runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "BYTES_PER_PARTICLE",
    "DataLevel",
    "HALO_CENTER_RECORD_BYTES",
    "level1_bytes",
    "level2_bytes",
    "level3_bytes",
    "DataLevelSizes",
    "table1_row",
]


class DataLevel(enum.IntEnum):
    """The three data-product levels of the HACC hierarchy."""

    RAW = 1
    REDUCED = 2
    DERIVED = 3


#: Raw bytes of Level 1 data per particle (paper §3: "each particle
#: carries 36 bytes of information"; the record is
#: :data:`repro.sim.particles.LEVEL1_SCHEMA`).
BYTES_PER_PARTICLE = 36

#: Bytes per halo record in a Level 3 center catalog: halo tag (8),
#: center xyz (12), MBP tag (8), count (8), mass (4), potential (4),
#: radius (4), padding/flags (4) = 52 bytes.  The paper's 43 MB for
#: ~ 0.9M halos at 1024^3 implies ~48 B/halo; 52 is the same order.
HALO_CENTER_RECORD_BYTES = 52


def level1_bytes(n_particles: int) -> int:
    """Raw snapshot size: 36 bytes per particle (paper §3)."""
    return int(n_particles) * BYTES_PER_PARTICLE


def level2_bytes(n_halo_particles: int) -> int:
    """Level 2 halo-particle dump: same 36-byte record per kept particle."""
    return int(n_halo_particles) * BYTES_PER_PARTICLE


def level3_bytes(n_halos: int) -> int:
    """Level 3 center-catalog size."""
    return int(n_halos) * HALO_CENTER_RECORD_BYTES


@dataclass(frozen=True)
class DataLevelSizes:
    """Measured or projected sizes of one snapshot's three levels."""

    n_particles: int
    n_level2_particles: int
    n_halos: int

    @property
    def level1(self) -> int:
        return level1_bytes(self.n_particles)

    @property
    def level2(self) -> int:
        return level2_bytes(self.n_level2_particles)

    @property
    def level3(self) -> int:
        return level3_bytes(self.n_halos)

    @property
    def reduction_factor(self) -> float:
        """Level 1 / Level 2 volume ratio (paper: ~5x for Q Continuum)."""
        if self.n_level2_particles == 0:
            return float("inf")
        return self.level1 / self.level2

    def scaled(self, particle_factor: float, halo_factor: float | None = None) -> "DataLevelSizes":
        """Self-similar scaling to a larger run.

        ``particle_factor`` scales particle counts (e.g. 512 from 1024³ to
        8192³); ``halo_factor`` scales the halo count (defaults to the
        particle factor — halo abundance is proportional to volume at
        fixed mass resolution).
        """
        hf = particle_factor if halo_factor is None else halo_factor
        return DataLevelSizes(
            n_particles=int(self.n_particles * particle_factor),
            n_level2_particles=int(self.n_level2_particles * particle_factor),
            n_halos=int(self.n_halos * hf),
        )


def table1_row(sizes: DataLevelSizes) -> dict[str, float]:
    """One row of Table 1: sizes in bytes per level for the last step."""
    return {
        "level1_bytes": sizes.level1,
        "level2_bytes": sizes.level2,
        "level3_bytes": sizes.level3,
        "reduction_factor": sizes.reduction_factor,
    }
