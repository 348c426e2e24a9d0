"""PISTON/VTK-m-style portable data-parallel primitive library.

Write an algorithm once against these primitives and run it on any
registered backend (``serial`` pure-Python loops, or ``vector``
NumPy-vectorized — the stand-ins for the paper's CPU and GPU targets).
"""

from .backends import (
    Backend,
    SerialBackend,
    VectorBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
    use_backend,
)
from .primitives import (
    compact,
    count_if,
    exclusive_scan,
    gather,
    inclusive_scan,
    map_,
    minloc,
    partition,
    reduce_,
    reduce_by_key,
    scatter,
    segmented_minloc,
    sort_by_key,
    unique,
    zip_arrays,
)

__all__ = [
    "Backend",
    "SerialBackend",
    "VectorBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "use_backend",
    "compact",
    "count_if",
    "exclusive_scan",
    "gather",
    "inclusive_scan",
    "map_",
    "minloc",
    "partition",
    "reduce_",
    "reduce_by_key",
    "scatter",
    "segmented_minloc",
    "sort_by_key",
    "unique",
    "zip_arrays",
]
