"""The variable-size all-to-all of named-array bundles."""

import pytest

from repro.parallel import SpmdError, alltoallv_arrays, run_spmd


def test_alltoallv_requires_one_chunk_per_rank():
    def prog(comm):
        alltoallv_arrays(comm, [{}])  # wrong length

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=3.0)
