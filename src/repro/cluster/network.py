"""Network cost model for the simulated cluster.

The paper runs on two platforms: a 17-node cluster wired through a 1 Gbps
switch, and an 80-core shared-memory server.  Communication in both cases
is master-slave: slaves send coverage vectors / decrement maps to the
master, and the master broadcasts the chosen seed back.

:class:`NetworkModel` converts counted payload bytes into simulated
transfer time.  Transfers to/from the master are serialised on the
master's link (a 1 Gbps port can only drain one slave at a time), which is
what makes communication time grow with the number of machines in Figs 5-9
while staying an order of magnitude below computation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel", "gigabit_cluster", "shared_memory_server"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency + bandwidth model of one point-to-point transfer.

    Attributes
    ----------
    bandwidth:
        Link bandwidth in bytes per second.
    latency:
        Per-message fixed cost in seconds.
    name:
        Human-readable label used in experiment output.
    """

    bandwidth: float
    latency: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")

    def transfer_time(self, num_bytes: int) -> float:
        """Time for one message of ``num_bytes`` over this link."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return self.latency + num_bytes / self.bandwidth

    def sequential_transfers(self, byte_sizes: list[int]) -> float:
        """Time to drain several messages serially over one link.

        Models a master gathering from (or broadcasting to) every slave
        through its single port.
        """
        return sum(self.transfer_time(b) for b in byte_sizes)

    def retransmission_time(self, num_bytes: int) -> float:
        """Time to recover a payload that failed its checksum on arrival.

        One latency for the master's NACK plus one full transfer of the
        payload.  The simulated executor adds this to the time an attempt
        loses when an injected corruption spoils its payload.
        """
        return self.latency + self.transfer_time(num_bytes)


def gigabit_cluster() -> NetworkModel:
    """The paper's cluster fabric: 1 Gbps switch.

    The per-message latency is set to 1 microsecond rather than a
    realistic ~0.1 ms TCP round trip: the stand-in workloads are scaled
    down by roughly three orders of magnitude from the paper's datasets
    (DESIGN.md), so fixed per-message costs must be scaled alongside the
    per-byte costs or they would swamp the breakdown.  Bandwidth is kept
    at the true 1 Gbps because payload sizes (coverage vectors, decrement
    maps) already scale with the graphs.
    """
    return NetworkModel(bandwidth=125_000_000.0, latency=1e-6, name="1Gbps-cluster")


def shared_memory_server() -> NetworkModel:
    """The paper's multi-core server: inter-core copies through memory.

    Bandwidth is effectively memory bandwidth shared across cores; latency
    is a few microseconds of synchronisation overhead per exchange.
    """
    return NetworkModel(bandwidth=20_000_000_000.0, latency=1e-7, name="shared-memory")
