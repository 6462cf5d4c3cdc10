"""The simulated master-slave cluster.

:class:`SimulatedCluster` executes per-machine work units sequentially
while metering each machine's wall-clock time; the *simulated parallel
time* of a phase is the maximum per-machine time (machines would have run
concurrently), and every master<->slave exchange is charged to the network
model.  This reproduces the timing structure of the paper's MPI deployment
without requiring 64 physical cores.

Typical usage by an algorithm::

    cluster = SimulatedCluster(num_machines=8, network=gigabit_cluster(), seed=1)
    results = cluster.map(GENERATION, "rr-generation", work)   # metered map
    cluster.gather("coverage-vectors", payload_sizes)          # slaves -> master
    cluster.broadcast("new-seed", 8)                           # master -> slaves
    cluster.metrics.breakdown()
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Sequence

import numpy as np

from .machine import Machine
from .metrics import COMPUTATION, RunMetrics
from .network import NetworkModel, shared_memory_server

__all__ = ["SimulatedCluster", "MachineFailure"]


class MachineFailure(RuntimeError):
    """A worker machine's task raised during a map phase.

    Carries the failing machine id and the phase label so the operator
    can attribute the failure; the original exception is chained as the
    ``__cause__``.
    """

    def __init__(self, machine_id: int, label: str) -> None:
        super().__init__(f"machine {machine_id} failed during phase {label!r}")
        self.machine_id = machine_id
        self.label = label


class SimulatedCluster:
    """A master plus ``num_machines`` simulated slave machines.

    Parameters
    ----------
    num_machines:
        Number of worker machines ``l``.
    network:
        Cost model for master<->slave transfers; defaults to the
        shared-memory server profile.
    seed:
        Root seed; RR-set generators are keyed off it and machine RNGs
        are spawned from it, so results are reproducible for fixed
        ``(seed, num_machines)``.
    clock:
        Injectable time source for deterministic tests.
    slowdowns:
        Optional per-machine speed handicaps for heterogeneous clusters
        (see :class:`~repro.cluster.machine.Machine`); defaults to a
        homogeneous cluster, the paper's setting.
    """

    def __init__(
        self,
        num_machines: int,
        network: NetworkModel | None = None,
        seed: int | np.random.SeedSequence = 0,
        clock: Callable[[], float] = time.perf_counter,
        slowdowns: Sequence[float] | None = None,
    ) -> None:
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        if slowdowns is not None and len(slowdowns) != num_machines:
            raise ValueError("slowdowns must have one entry per machine")
        self.network = network if network is not None else shared_memory_server()
        seed_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        #: Generation phases key RR sets off its entropy; machine RNGs are its children.
        self.seed_sequence = seed_seq
        children = seed_seq.spawn(num_machines + 1)
        #: The master's own RNG (used e.g. for tie-breaking decisions).
        self.master_rng = np.random.default_rng(children[0])
        self.machines: List[Machine] = [
            Machine(
                i,
                np.random.default_rng(children[i + 1]),
                clock=clock,
                slowdown=1.0 if slowdowns is None else float(slowdowns[i]),
            )
            for i in range(num_machines)
        ]
        self.metrics = RunMetrics()
        #: The time source master-side work is metered with (the machines share it).
        self.clock = clock

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    # ------------------------------------------------------------------
    # Metered execution
    # ------------------------------------------------------------------
    def map(
        self,
        category: str,
        label: str,
        work: Callable[[Machine], Any],
    ) -> List[Any]:
        """Run ``work`` on every machine; meter and record the phase.

        ``category`` must be :data:`~repro.cluster.metrics.GENERATION` or
        :data:`~repro.cluster.metrics.COMPUTATION`.  Returns the per-machine
        results in machine order.
        """
        results: List[Any] = []
        times: List[float] = []
        for machine in self.machines:
            try:
                result, elapsed = machine.run(work)
            except Exception as exc:
                raise MachineFailure(machine.machine_id, label) from exc
            results.append(result)
            times.append(elapsed)
        self.metrics.record_compute_phase(category, label, times)
        return results

    def run_on_master(self, label: str, work: Callable[[], Any]) -> Any:
        """Run master-side work (e.g. the greedy scan) as a computation phase."""
        start = self.clock()
        result = work()
        elapsed = self.clock() - start
        self.metrics.record_compute_phase(COMPUTATION, label, [elapsed])
        return result

    # ------------------------------------------------------------------
    # Communication accounting
    # ------------------------------------------------------------------
    def gather(self, label: str, byte_sizes: Sequence[int]) -> None:
        """Charge a slaves->master gather; one message per slave."""
        if len(byte_sizes) != self.num_machines:
            raise ValueError(
                f"expected {self.num_machines} payload sizes, got {len(byte_sizes)}"
            )
        elapsed = self.network.sequential_transfers(list(byte_sizes))
        self.metrics.record_communication(label, int(sum(byte_sizes)), elapsed)

    def broadcast(self, label: str, num_bytes: int) -> None:
        """Charge a master->slaves broadcast of ``num_bytes`` per slave."""
        sizes = [num_bytes] * self.num_machines
        elapsed = self.network.sequential_transfers(sizes)
        self.metrics.record_communication(label, num_bytes * self.num_machines, elapsed)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def init_collections(self, num_nodes: int, backend: str = "flat") -> None:
        """Give every machine a fresh RR collection over ``num_nodes`` nodes.

        ``backend`` selects the store flavour per machine — ``"flat"``
        (CSR arrays, the default) or ``"reference"`` (dict inverted
        index); see :func:`repro.ris.flat.make_collection`.
        """
        for machine in self.machines:
            machine.init_collection(num_nodes, backend=backend)

    def split_count(self, total: int) -> List[int]:
        """Split ``total`` work items across machines as evenly as possible.

        The first ``total % l`` machines receive one extra item, so counts
        differ by at most one (the paper's ``theta / l`` split).
        """
        base, extra = divmod(total, self.num_machines)
        return [base + (1 if i < extra else 0) for i in range(self.num_machines)]

    def split_count_weighted(self, total: int) -> List[int]:
        """Split work proportionally to machine speed (``1 / slowdown``).

        On a homogeneous cluster this coincides with :meth:`split_count`;
        on a heterogeneous one it equalises per-machine finish times.
        Largest-remainder rounding keeps the sum exact.
        """
        speeds = np.asarray([1.0 / m.slowdown for m in self.machines])
        raw = total * speeds / speeds.sum()
        shares = np.floor(raw).astype(int)
        remainder = total - int(shares.sum())
        if remainder:
            order = np.argsort(-(raw - shares))
            shares[order[:remainder]] += 1
        return [int(s) for s in shares]

    def __repr__(self) -> str:
        return (
            f"SimulatedCluster(num_machines={self.num_machines}, "
            f"network={self.network.name!r})"
        )
