"""Particle container and Level 1 data accounting.

HACC's raw (Level 1) output stores, per particle, positions, velocities,
and a particle tag, at **36 bytes per particle** (paper §3).  This module
defines the structure-of-arrays container used throughout the repo and
the byte accounting the data-level size model (Table 1) relies on:

========  =========  =====
field     dtype      bytes
========  =========  =====
x, y, z   float32    12
vx,vy,vz  float32    12
tag       uint64      8
mask      uint32      4
========  =========  =====

Total: 36 bytes, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..io.levels import BYTES_PER_PARTICLE

__all__ = ["Particles", "BYTES_PER_PARTICLE", "LEVEL1_SCHEMA", "wrap_periodic"]

#: Field name -> numpy dtype of one Level 1 particle record.
LEVEL1_SCHEMA: dict[str, np.dtype] = {
    "x": np.dtype(np.float32),
    "y": np.dtype(np.float32),
    "z": np.dtype(np.float32),
    "vx": np.dtype(np.float32),
    "vy": np.dtype(np.float32),
    "vz": np.dtype(np.float32),
    "tag": np.dtype(np.uint64),
    "mask": np.dtype(np.uint32),
}


def wrap_periodic(x: np.ndarray, box: float, scratch: np.ndarray | None = None) -> None:
    """Wrap a float array into ``[0, box]`` in place: ``x -= floor(x/box)·box``.

    Bit-identical to ``np.mod(x, box, out=x)`` for ``x`` within one box
    length of the box — all a time step or the Zel'dovich displacement
    ever produces — at a fifth of the cost of the libm ``fmod`` behind
    it; farther out the two agree to the rounding of ``k·box``.  As with
    ``np.mod``, a tiny negative ``x`` rounds to ``box`` itself, hence the
    closed interval.  ``scratch``, shaped like ``x``, spares the one
    temporary.
    """
    shift = np.divide(x, box, out=scratch)
    np.floor(shift, out=shift)
    shift *= box
    x -= shift


@dataclass
class Particles:
    """Structure-of-arrays particle set.

    Positions are comoving, in box units (``[0, box)``); velocities are in
    matching code units; ``tag`` is a globally unique particle identifier;
    ``mask`` carries per-particle status bits (unused bits reserved).
    All particles have equal mass ``particle_mass`` (N-body convention),
    so halo mass is simply count x particle_mass.
    """

    pos: np.ndarray  # (n, 3) float32/float64
    vel: np.ndarray  # (n, 3)
    tag: np.ndarray  # (n,) uint64
    mask: np.ndarray | None = None  # (n,) uint32
    box: float = 1.0
    particle_mass: float = 1.0
    extra: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pos = np.atleast_2d(np.asarray(self.pos))
        self.vel = np.atleast_2d(np.asarray(self.vel))
        self.tag = np.asarray(self.tag, dtype=np.uint64)
        n = len(self.pos)
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ValueError("pos and vel must have shape (n, 3)")
        if len(self.tag) != n:
            raise ValueError("tag length must match particle count")
        if self.mask is None:
            self.mask = np.zeros(n, dtype=np.uint32)
        else:
            self.mask = np.asarray(self.mask, dtype=np.uint32)
            if len(self.mask) != n:
                raise ValueError("mask length must match particle count")

    def __len__(self) -> int:
        return len(self.pos)

    @property
    def n(self) -> int:
        """Particle count."""
        return len(self.pos)

    @property
    def level1_bytes(self) -> int:
        """Raw Level 1 size of this particle set (36 B/particle)."""
        return self.n * BYTES_PER_PARTICLE

    # -- manipulation ------------------------------------------------------

    def select(self, index: np.ndarray) -> "Particles":
        """New :class:`Particles` holding the rows selected by ``index``."""
        return Particles(
            pos=self.pos[index],
            vel=self.vel[index],
            tag=self.tag[index],
            mask=self.mask[index],
            box=self.box,
            particle_mass=self.particle_mass,
            extra={k: v[index] for k, v in self.extra.items()},
        )

    def copy(self) -> "Particles":
        """Deep copy."""
        return Particles(
            pos=self.pos.copy(),
            vel=self.vel.copy(),
            tag=self.tag.copy(),
            mask=self.mask.copy(),
            box=self.box,
            particle_mass=self.particle_mass,
            extra={k: v.copy() for k, v in self.extra.items()},
        )

    def copy_into(self, dst: "Particles") -> "Particles":
        """Copy this state into ``dst``'s existing buffers (no allocation).

        ``dst`` must hold the same particle count, field shapes, and
        extra-field set (the double-buffer reuse path of the pipelined
        in-situ manager).  Returns ``dst``.
        """
        if len(dst) != len(self) or set(dst.extra) != set(self.extra):
            raise ValueError("destination buffers do not match this particle set")
        np.copyto(dst.pos, self.pos)
        np.copyto(dst.vel, self.vel)
        np.copyto(dst.tag, self.tag)
        np.copyto(dst.mask, self.mask)
        for key, value in self.extra.items():
            np.copyto(dst.extra[key], value)
        dst.box = self.box
        dst.particle_mass = self.particle_mass
        return dst

    @staticmethod
    def concatenate(parts: list["Particles"]) -> "Particles":
        """Concatenate particle sets (metadata taken from the first)."""
        if not parts:
            raise ValueError("cannot concatenate empty list")
        first = parts[0]
        keys = set(first.extra)
        for p in parts[1:]:
            if set(p.extra) != keys:
                raise ValueError("extra-field sets differ between parts")
        return Particles(
            pos=np.concatenate([p.pos for p in parts]),
            vel=np.concatenate([p.vel for p in parts]),
            tag=np.concatenate([p.tag for p in parts]),
            mask=np.concatenate([p.mask for p in parts]),
            box=first.box,
            particle_mass=first.particle_mass,
            extra={k: np.concatenate([p.extra[k] for p in parts]) for k in keys},
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat dict-of-arrays view (for redistribution / I/O)."""
        out = {"pos": self.pos, "vel": self.vel, "tag": self.tag, "mask": self.mask}
        out.update(self.extra)
        return out

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], box: float, particle_mass: float = 1.0
    ) -> "Particles":
        """Inverse of :meth:`to_arrays`."""
        extra = {
            k: v for k, v in arrays.items() if k not in ("pos", "vel", "tag", "mask")
        }
        return cls(
            pos=arrays["pos"],
            vel=arrays["vel"],
            tag=arrays["tag"],
            mask=arrays.get("mask"),
            box=box,
            particle_mass=particle_mass,
            extra=extra,
        )

    def wrap(self) -> None:
        """Periodically wrap positions into ``[0, box]`` in place."""
        wrap_periodic(self.pos, self.box)
