"""In-process SPMD substrate: communicator, domain decomposition, ghosts.

The repo's MPI stand-in.  Algorithms written against
:class:`~repro.parallel.communicator.Communicator` follow mpi4py idioms
(send/recv/bcast/gather/allreduce/alltoall) and run via
:func:`~repro.parallel.communicator.run_spmd` over a pluggable
transport: one thread per rank (the deterministic reference) or one
forked OS process per rank (:mod:`repro.parallel.transport`), selected
with ``run_spmd(..., transport="thread"|"process")`` or
:class:`~repro.parallel.transport.SpmdConfig`.
"""

from .communicator import CollectiveProtocolError, Communicator, SpmdError, World, run_spmd
from .decomposition import CartesianDecomposition, factor_dims
from .exchange import ExchangeStats, alltoallv_arrays, redistribute_arrays
from .overload import OVERLOAD_SAFETY_FACTOR, overload_destinations, select_overload
from .transport import SpmdConfig, resolve_transport

__all__ = [
    "CollectiveProtocolError",
    "Communicator",
    "SpmdError",
    "World",
    "run_spmd",
    "SpmdConfig",
    "resolve_transport",
    "CartesianDecomposition",
    "factor_dims",
    "ExchangeStats",
    "alltoallv_arrays",
    "redistribute_arrays",
    "OVERLOAD_SAFETY_FACTOR",
    "overload_destinations",
    "select_overload",
]
