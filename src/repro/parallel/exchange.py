"""Variable-size all-to-all of named-array bundles.

The off-line workflows in the paper pay a substantial cost to read
Level 1 data back from disk and *redistribute* particles to the ranks
that own their sub-box (Table 4: 435 s for Level 1, 75 s for Level 2).
:func:`alltoallv_arrays` is that exchange's collective on top of the
in-process communicator; the machine cost model charges redistribution
time at paper scale.
"""

from __future__ import annotations

import numpy as np

from .communicator import Communicator

__all__ = ["alltoallv_arrays"]


def alltoallv_arrays(
    comm: Communicator, send_chunks: list[dict[str, np.ndarray]]
) -> list[dict[str, np.ndarray]]:
    """Variable-size all-to-all of named-array bundles.

    ``send_chunks[d]`` is a dict of equal-length arrays destined for rank
    ``d``.  Returns the list of received bundles indexed by source rank.
    """
    if len(send_chunks) != comm.size:
        raise ValueError("send_chunks must have one entry per rank")
    return comm.alltoall(send_chunks)
