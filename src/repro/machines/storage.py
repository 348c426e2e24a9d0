"""Storage devices: parallel file system and burst-buffer memory.

Models the two data paths the paper contrasts: writing Level 2 data to
the Lustre file system (the "simple" and "co-scheduled" combined
workflows) versus staging it in "a separate memory device (such as
NVRAM) that is shared between the main HPC system and the analysis
cluster" (the hypothetical *in-transit* variant, which eliminates the
Level 2 I/O entirely).

Devices track bytes written/read and convert them to wall seconds; the
accounting feeds Table 3/4's I/O columns.

Failure model (see ``docs/failures.md``): each transfer runs under a
:class:`~repro.faults.RetryPolicy` at the ``"storage.write"`` /
``"storage.read"`` injection sites.  A failed attempt means the
transfer is re-sent, so the returned wall-clock cost scales with the
number of attempts; the byte accounting counts the delivered payload
once (Table 3/4 report data moved, not wire traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults import FaultInjected, RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder

__all__ = ["StorageDevice", "lustre_like", "burst_buffer_like"]


@dataclass
class StorageDevice:
    """A storage tier with distinct read/write bandwidths.

    ``aggregate_cap`` bounds the total achievable bandwidth regardless
    of client count (file-system saturation); ``per_node`` rates apply
    below the cap.
    """

    name: str
    write_per_node: float  # bytes/s per writing node
    read_per_node: float
    aggregate_cap: float = float("inf")
    #: transfer retry policy at the storage.* fault sites (``None`` →
    #: the tree-wide default; faults are off unless a plan is active)
    retry: RetryPolicy | None = None
    #: cumulative accounting
    bytes_written: int = 0
    bytes_read: int = 0
    write_events: list[tuple[int, int]] = field(default_factory=list)  # (bytes, nodes)
    read_events: list[tuple[int, int]] = field(default_factory=list)

    def _bandwidth(self, per_node: float, n_nodes: int) -> float:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        return min(per_node * n_nodes, self.aggregate_cap)

    def _transfer_attempts(self, site: str, seq: int) -> int:
        """Run one injectable transfer; returns how many attempts it took."""
        outcome = resolve_retry(self.retry).run(
            maybe_inject,
            site,
            f"{self.name}:{seq}",
            site=site,
            key=f"{self.name}:{seq}",
            retryable=(FaultInjected,),
        )
        return outcome.attempts

    def write_seconds(self, nbytes: int, n_nodes: int) -> float:
        """Record a write and return its wall-clock cost.

        Under an active fault plan a failed attempt re-sends the
        transfer, so the cost is multiplied by the attempt count.
        """
        attempts = self._transfer_attempts("storage.write", len(self.write_events))
        self.bytes_written += int(nbytes)
        self.write_events.append((int(nbytes), n_nodes))
        seconds = attempts * nbytes / self._bandwidth(self.write_per_node, n_nodes)
        get_recorder().event(
            "storage.write",
            device=self.name,
            nbytes=int(nbytes),
            nodes=n_nodes,
            seconds=seconds,
            attempts=attempts,
        )
        return seconds

    def read_seconds(self, nbytes: int, n_nodes: int) -> float:
        """Record a read and return its wall-clock cost.

        Under an active fault plan a failed attempt re-reads the
        transfer, so the cost is multiplied by the attempt count.
        """
        attempts = self._transfer_attempts("storage.read", len(self.read_events))
        self.bytes_read += int(nbytes)
        self.read_events.append((int(nbytes), n_nodes))
        seconds = attempts * nbytes / self._bandwidth(self.read_per_node, n_nodes)
        get_recorder().event(
            "storage.read",
            device=self.name,
            nbytes=int(nbytes),
            nodes=n_nodes,
            seconds=seconds,
            attempts=attempts,
        )
        return seconds


def lustre_like() -> StorageDevice:
    """The Titan-era parallel file system (near peak for HACC I/O)."""
    return StorageDevice(
        name="lustre",
        write_per_node=2.42e8,
        read_per_node=2.42e8,
        aggregate_cap=35.0e9,
    )


def burst_buffer_like() -> StorageDevice:
    """NVRAM/burst-buffer tier: order-of-magnitude faster, no seek cost.

    The in-transit workflow stages Level 2 data here; its write cost is
    effectively hidden ("would not require any additional I/O for the
    Level 2 data").
    """
    return StorageDevice(
        name="burst-buffer",
        write_per_node=5.0e9,
        read_per_node=5.0e9,
        aggregate_cap=1.0e12,
    )
