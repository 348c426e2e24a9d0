"""repro.streaming — bounded-memory one-pass analysis over particle streams.

The analysis chain for snapshots that cannot be memory-resident (the
paper's Q Continuum Level 1 outputs): chunked slab-ordered streams, an
incremental FOF with a boundary-halo ring, fixed-size one-pass
accumulators (mass function, Misra–Gries heavy hitters, CIC power
spectrum), and link-ahead pair searches on the host's cores — with an
exactness contract against the in-memory pipeline (``docs/streaming.md``).

Typical use::

    from repro.streaming import GenericIOStream, StreamingAnalysis

    stream = GenericIOStream("l1_step0499.gio", chunk_rows=1 << 16)
    engine = StreamingAnalysis(
        linking_length=0.2 * mean_separation,
        mass_function_bins=(40, 1e6, 32),
        power_spectrum_ng=128,
        heavy_hitter_k=32,
    )
    result = engine.run(stream)
    result.catalog.halo_tags        # == in-memory fof_grid, bit-identical
"""

from .accumulators import MisraGries, StreamingMassFunction, StreamingPowerSpectrum
from .engine import StreamingAnalysis, StreamingResult
from .fof import GroupForest, StreamedCatalog, StreamingFOF, StreamOrderError
from .stream import (
    ArrayStream,
    GenericIOStream,
    ParticleStream,
    slab_order,
    write_slab_snapshot,
)

__all__ = [
    "ArrayStream",
    "GenericIOStream",
    "GroupForest",
    "MisraGries",
    "ParticleStream",
    "slab_order",
    "StreamOrderError",
    "StreamedCatalog",
    "StreamingAnalysis",
    "StreamingFOF",
    "StreamingMassFunction",
    "StreamingPowerSpectrum",
    "StreamingResult",
    "write_slab_snapshot",
]
