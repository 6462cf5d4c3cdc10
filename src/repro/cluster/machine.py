"""A simulated worker machine.

Each :class:`Machine` owns its slice of the distributed state — its RR
collection ``R_i`` and an independent random stream spawned from the
cluster seed — and executes metered work units.  Machines never touch each
other's state directly; all cross-machine data flow goes through the
cluster's communication accounting, mirroring the message-passing model of
the paper's Open MPI implementation.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

import numpy as np

from ..ris.flat import make_collection

__all__ = ["Machine"]


class Machine:
    """One simulated worker with private state and a private RNG.

    Parameters
    ----------
    machine_id:
        Index ``i`` of this machine (0-based; the master is external).
    rng:
        The machine's private random generator (spawned per machine so a
        run is reproducible for fixed ``(seed, num_machines)``).  Map
        phases draw on it (Monte-Carlo estimation, the adaptive
        application); generation phases never do — RR sets are keyed by
        coordinates (:func:`repro.ris.rrset.sample_set_range`).
    clock:
        Time source used to meter work; injectable for deterministic tests.
    slowdown:
        Relative speed handicap for heterogeneous-cluster simulation: a
        machine with ``slowdown = 2.0`` is metered as twice as slow.  The
        paper assumes identical machines (slowdown 1.0 everywhere); the
        heterogeneity ablation uses this to show when the even
        ``theta / l`` split stops being optimal.
    """

    def __init__(
        self,
        machine_id: int,
        rng: np.random.Generator,
        clock: Callable[[], float] = time.perf_counter,
        slowdown: float = 1.0,
    ) -> None:
        if slowdown <= 0:
            raise ValueError(f"slowdown must be positive, got {slowdown}")
        self.machine_id = machine_id
        self.rng = rng
        self._clock = clock
        self.slowdown = float(slowdown)
        #: The machine's RR store — a :class:`RRCollection` or
        #: :class:`~repro.ris.flat.FlatRRCollection`, per backend.
        self.collection = None

    def init_collection(self, num_nodes: int, backend: str = "flat"):
        """Create (or reset) this machine's RR collection.

        ``backend="flat"`` (default) gives the CSR-backed store the
        vectorized coverage kernel reads natively; ``"reference"`` gives
        the dict-indexed :class:`RRCollection` oracle.
        """
        self.collection = make_collection(num_nodes, backend)
        return self.collection

    def run(self, work: Callable[["Machine"], Any]) -> Tuple[Any, float]:
        """Execute ``work(self)`` and return ``(result, elapsed_seconds)``.

        The elapsed time is scaled by the machine's ``slowdown`` factor.
        """
        start = self._clock()
        result = work(self)
        elapsed = (self._clock() - start) * self.slowdown
        return result, elapsed

    def __repr__(self) -> str:
        sets = self.collection.num_sets if self.collection is not None else 0
        return f"Machine(id={self.machine_id}, rr_sets={sets})"
