"""The simulated master-slave cluster's shape.

:class:`SimulatedCluster` is a frozen value: how many machines, the
network model that prices their traffic, the run's root seed, the time
source and each machine's speed handicap.  It runs nothing — the
:class:`~repro.cluster.executor.Executor` built on it runs every phase,
meters each machine's wall clock (scaled by its slowdown), takes a
phase's parallel time as the maximum over machines, prices every
master<->slave exchange with the network model and keeps the run's
:class:`~repro.cluster.metrics.RunMetrics`.  This reproduces the timing
structure of the paper's MPI deployment without requiring 64 physical
cores.

Typical usage::

    cluster = SimulatedCluster(num_machines=8, network=gigabit_cluster(), seed=1)
    executor = make_executor("simulated", cluster, graph=graph)
    executor.run_phase(GeneratePhase("rr-generation", counts, targets))
    executor.run_phase(GatherPhase("coverage-vectors", payload_sizes))
    executor.metrics.breakdown()
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .network import NetworkModel, shared_memory_server

__all__ = ["SimulatedCluster", "split_count"]


@dataclass(frozen=True, repr=False)
class SimulatedCluster:
    """A master plus ``num_machines`` simulated slave machines.

    Parameters
    ----------
    num_machines:
        Number of worker machines ``l``.
    network:
        Cost model for master<->slave transfers; ``None`` (default) is the
        shared-memory server profile.
    seed:
        Root seed, a non-negative int.  RR set ``i`` of collection ``key``
        on machine ``m`` is drawn at the coordinates ``(seed, key, m, i)``,
        so results are reproducible for fixed ``(seed, num_machines)``.
    clock:
        Injectable time source for deterministic tests.
    slowdowns:
        Per-machine speed handicaps for heterogeneous clusters: a machine
        with ``slowdown = 2.0`` is metered as twice as slow.  ``None``
        (default) is a homogeneous cluster, the paper's setting.
    """

    num_machines: int
    network: NetworkModel | None = None
    seed: int = 0
    clock: Callable[[], float] = time.perf_counter
    slowdowns: Tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")
        seed = operator.index(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if self.slowdowns is None:
            slowdowns = (1.0,) * self.num_machines
        else:
            slowdowns = tuple(float(s) for s in self.slowdowns)
            if len(slowdowns) != self.num_machines:
                raise ValueError("slowdowns must have one entry per machine")
            if any(s <= 0 for s in slowdowns):
                raise ValueError(f"slowdowns must be positive, got {list(slowdowns)}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "slowdowns", slowdowns)
        if self.network is None:
            object.__setattr__(self, "network", shared_memory_server())

    def __repr__(self) -> str:
        return (
            f"SimulatedCluster(num_machines={self.num_machines}, "
            f"network={self.network.name!r})"
        )


def split_count(total: int, parts: int) -> List[int]:
    """Split ``total`` work items over ``parts`` machines as evenly as possible.

    The first ``total % parts`` machines receive one extra item, so counts
    differ by at most one (the paper's ``theta / l`` split).
    """
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
