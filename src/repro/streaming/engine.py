"""The one-pass streaming analysis engine: drive a stream through
incremental FOF and the fixed-size accumulators.

One pass over any :class:`~repro.streaming.stream.ParticleStream`:

* :class:`~repro.streaming.fof.StreamingFOF` plans each chunk into slab
  pieces whose pair searches run on its link pool while the caller
  merges earlier pieces and reads the next chunk, then retires
  finished groups;
* retirement batches fold into the mass-function and heavy-hitter
  accumulators; chunks deposit into the power-spectrum mesh;
* ``stream.*`` spans, ``stream_*`` counters and a peak-RSS gauge flow
  through :mod:`repro.obs` (one :func:`~repro.obs.sample_memory` call
  per chunk).

Resident state is O(chunk + ring + active groups + accumulators): the
pieces in flight hold at most ``chunk_rows + W * ring`` particles, and
:meth:`StreamingAnalysis.run` stops the link pool before it returns or
raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.fof import DEFAULT_MIN_COUNT
from ..analysis.mass_function import MassFunction
from ..analysis.power_spectrum import PowerSpectrumResult
from ..obs import get_recorder, sample_memory
from .accumulators import MisraGries, StreamingMassFunction, StreamingPowerSpectrum
from .fof import StreamedCatalog, StreamingFOF
from .stream import ParticleStream

__all__ = ["StreamingAnalysis", "StreamingResult"]


@dataclass(frozen=True)
class StreamingResult:
    """Everything one pass produced."""

    catalog: StreamedCatalog
    mass_function: MassFunction | None
    power_spectrum: PowerSpectrumResult | None
    heavy_hitters: list[tuple[int, int]] | None
    n_chunks: int
    n_particles: int
    peak_resident_particles: int
    peak_rss_bytes: int


class StreamingAnalysis:
    """Configured one-pass analysis: FOF catalog + chosen accumulators.

    Parameters
    ----------
    linking_length:
        Absolute FOF linking length (box units).
    min_count:
        Discard halos below this many particles (paper production: 40).
    mass_function_bins:
        ``(lo, hi, n_bins)`` for the one-pass mass function, or ``None``
        to skip it.  Fixed explicit edges are required one-pass; pass
        the same triple to the in-memory comparison for bit-identity.
    power_spectrum_ng:
        CIC/FFT mesh size for the one-pass P(k), or ``None`` to skip.
    heavy_hitter_k:
        Counter budget for the Misra–Gries halo-mass sketch, or ``None``
        to skip.
    """

    def __init__(
        self,
        linking_length: float,
        min_count: int = DEFAULT_MIN_COUNT,
        mass_function_bins: tuple[float, float, int] | None = None,
        power_spectrum_ng: int | None = None,
        heavy_hitter_k: int | None = None,
    ):
        self.linking_length = float(linking_length)
        self.min_count = int(min_count)
        self.mass_function_bins = mass_function_bins
        self.power_spectrum_ng = power_spectrum_ng
        self.heavy_hitter_k = heavy_hitter_k

    def run(self, stream: ParticleStream) -> StreamingResult:
        """One pass over ``stream``; returns the full result bundle."""
        box = stream.box
        mf = (
            StreamingMassFunction(*self.mass_function_bins)
            if self.mass_function_bins is not None
            else None
        )
        mg = MisraGries(self.heavy_hitter_k) if self.heavy_hitter_k else None
        ps = (
            StreamingPowerSpectrum(box, self.power_spectrum_ng)
            if self.power_spectrum_ng
            else None
        )
        rec = get_recorder()

        def on_retire(tags: np.ndarray, counts: np.ndarray) -> None:
            rec.counter("stream_halos_retired_total").inc(len(tags))
            if mf is not None:
                mf.update(counts)
            if mg is not None:
                mg.update(tags, counts)

        peak_rss = 0
        with rec.span("stream.run", box=box, chunk_rows=stream.chunk_rows):
            # built inside stream.run: the link spans parent under it
            fof = StreamingFOF(box, self.linking_length, self.min_count, on_retire)
            try:
                for chunk in stream:
                    pos, tags = chunk["pos"], chunk["tag"]
                    with rec.span("stream.chunk", index=fof.n_chunks, rows=len(tags)):
                        fof.ingest(pos, tags)
                        if ps is not None:
                            ps.update(pos)
                    rec.counter("stream_chunks_total").inc()
                    rec.counter("stream_particles_total").inc(len(tags))
                    peak_rss = sample_memory()
                with rec.span("stream.finalize"):
                    catalog = fof.finalize()
                    peak_rss = sample_memory()
            finally:
                fof.close()
        return StreamingResult(
            catalog=catalog,
            mass_function=mf.finalize() if mf is not None else None,
            power_spectrum=ps.finalize() if ps is not None and ps.n_particles else None,
            heavy_hitters=mg.top() if mg is not None else None,
            n_chunks=fof.n_chunks,
            n_particles=fof.n_particles,
            peak_resident_particles=fof.peak_resident,
            peak_rss_bytes=peak_rss,
        )
