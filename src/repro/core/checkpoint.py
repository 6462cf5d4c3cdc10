"""Driver-level checkpoint/resume: per-round snapshots of the whole loop.

A round snapshot captures everything the :class:`~repro.core.driver.RoundDriver`
needs to deterministically re-enter the loop after the round:

* every machine's RR collections (via :func:`repro.ris.serialization.save_collection`,
  which stamps the format magic/version);
* the master's incremental :class:`~repro.coverage.state.CoverageState`;
* the stopping rule's internal state and the driver's round position;
* the run configuration, validated on resume so a checkpoint can never be
  silently continued under different parameters.

Snapshots are written atomically: the round directory is assembled under
a temporary name and renamed into place, so a run killed mid-write leaves
either the previous complete snapshot or nothing — never a torn one.  The
driver only checkpoints rounds it decided to *continue* past; a crash
during round ``r + 1`` resumes from round ``r``'s snapshot and replays
the interrupted round bit-for-bit, ending in the identical seed set.  No
RNG state is saved: RR set ``i`` of a collection is drawn at its
coordinates (:func:`repro.ris.rrset.sample_set_range`), so the restored
collections' sizes say where generation continues.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from ..ris.serialization import (
    CheckpointFormatError,
    load_collection,
    load_flat_collection,
    save_collection,
)

__all__ = [
    "DRIVER_CHECKPOINT_MAGIC",
    "DRIVER_CHECKPOINT_VERSION",
    "DriverSnapshot",
    "CheckpointManager",
    "manager_for",
]

#: Identifies a ``state.json`` as a driver checkpoint.
DRIVER_CHECKPOINT_MAGIC = "repro-driver-checkpoint"
#: Layout version of the round-directory schema.  2: no per-machine
#: generator states — a version-1 snapshot continued sequential machine
#: streams this build no longer draws, so it is refused rather than mixed.
DRIVER_CHECKPOINT_VERSION = 2

_ROUND_DIR = re.compile(r"^round-(\d{4,})$")


@dataclass
class DriverSnapshot:
    """One restored round snapshot, ready to hand back to the driver.

    ``recovery`` carries the fault-tolerance events recorded up to the
    snapshot (as dicts, see
    :meth:`RunMetrics.recovery_state <repro.cluster.metrics.RunMetrics.recovery_state>`),
    so a resumed run's recovery log covers the whole run, not just the
    rounds after the restart.  Pre-fault-layer checkpoints restore with
    an empty log.
    """

    round_index: int
    rule_state: Dict[str, Any]
    coverage_state: Dict[str, np.ndarray]
    stores: Dict[str, List]
    recovery: List[Dict[str, Any]] = field(default_factory=list)


class CheckpointManager:
    """Reads and writes round snapshots under one checkpoint directory.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first save.  One directory holds
        one run's snapshots (``round-0001/``, ``round-0002/``, ...).
    config:
        The run's identifying parameters (graph size, ``k``, ``eps``,
        seed, machines, ...).  Stored in every snapshot and compared on
        resume; a mismatch raises :class:`CheckpointFormatError` instead
        of continuing the wrong run.
    """

    def __init__(self, directory: str | os.PathLike, config: Mapping[str, Any]) -> None:
        self.directory = Path(directory)
        self.config = dict(config)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(
        self,
        round_index: int,
        rule_name: str,
        rule_state: Dict[str, Any],
        coverage_state: Dict[str, np.ndarray],
        stores: Mapping[str, Sequence],
        recovery: Sequence[Mapping[str, Any]] = (),
    ) -> Path:
        """Atomically write the snapshot for ``round_index``; return its dir.

        ``recovery`` is the run's fault-tolerance log so far (event
        dicts); stored under an optional key, so the format version is
        unchanged and older checkpoints stay loadable.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        final_dir = self.directory / f"round-{round_index:04d}"
        tmp_dir = self.directory / f".tmp-round-{round_index:04d}"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir()

        np.savez_compressed(tmp_dir / "coverage.npz", **coverage_state)
        for key, per_machine in stores.items():
            for machine_id, store in enumerate(per_machine):
                save_collection(store, tmp_dir / f"machine{machine_id}-{key}.npz")
        state = {
            "magic": DRIVER_CHECKPOINT_MAGIC,
            "version": DRIVER_CHECKPOINT_VERSION,
            "round_index": int(round_index),
            "rule": {"name": rule_name, "state": rule_state},
            "collection_keys": list(stores),
            "num_machines": len(next(iter(stores.values()))),
            "config": self.config,
            "recovery": [dict(event) for event in recovery],
        }
        with open(tmp_dir / "state.json", "w") as handle:
            json.dump(state, handle, indent=2)

        if final_dir.exists():
            shutil.rmtree(final_dir)
        os.replace(tmp_dir, final_dir)
        return final_dir

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latest_round(self) -> int | None:
        """Highest round index with a complete snapshot, or ``None``."""
        if not self.directory.is_dir():
            return None
        rounds = []
        for entry in self.directory.iterdir():
            match = _ROUND_DIR.match(entry.name)
            if match and (entry / "state.json").is_file():
                rounds.append(int(match.group(1)))
        return max(rounds) if rounds else None

    def load_latest(
        self,
        rule_name: str,
        collection_keys: Sequence[str],
        num_machines: int,
        backend: str,
    ) -> DriverSnapshot:
        """Load and validate the most recent snapshot.

        Raises :class:`FileNotFoundError` when the directory holds no
        snapshot and :class:`CheckpointFormatError` when the snapshot
        does not belong to this run (different rule, shape, config or
        format version).
        """
        round_index = self.latest_round()
        if round_index is None:
            raise FileNotFoundError(
                f"no driver checkpoint found under {self.directory}"
            )
        return self.load(round_index, rule_name, collection_keys, num_machines, backend)

    def load(
        self,
        round_index: int,
        rule_name: str,
        collection_keys: Sequence[str],
        num_machines: int,
        backend: str,
    ) -> DriverSnapshot:
        """Load and validate one round's snapshot."""
        round_dir = self.directory / f"round-{round_index:04d}"
        state_path = round_dir / "state.json"
        try:
            with open(state_path) as handle:
                state = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(
                f"{state_path} is not a readable driver checkpoint: {exc}"
            ) from exc

        if state.get("magic") != DRIVER_CHECKPOINT_MAGIC:
            raise CheckpointFormatError(
                f"{state_path} is not a driver checkpoint "
                f"(missing {DRIVER_CHECKPOINT_MAGIC!r} header)"
            )
        version = state.get("version")
        if version != DRIVER_CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"{state_path} uses driver-checkpoint version {version}, but this "
                f"build reads version {DRIVER_CHECKPOINT_VERSION}; regenerate the "
                "checkpoint with the matching release"
            )
        if state["rule"]["name"] != rule_name:
            raise CheckpointFormatError(
                f"checkpoint {round_dir} was written by rule "
                f"{state['rule']['name']!r}, but this run uses {rule_name!r}"
            )
        if state["num_machines"] != num_machines or sorted(
            state["collection_keys"]
        ) != sorted(collection_keys):
            raise CheckpointFormatError(
                f"checkpoint {round_dir} covers {state['num_machines']} machines "
                f"and collections {state['collection_keys']}, but this run has "
                f"{num_machines} machines and collections {list(collection_keys)}"
            )
        if state["config"] != self.config:
            changed = sorted(
                key
                for key in set(state["config"]) | set(self.config)
                if state["config"].get(key) != self.config.get(key)
            )
            raise CheckpointFormatError(
                f"checkpoint {round_dir} was written under a different run "
                f"configuration (differing keys: {changed}); refusing to resume"
            )

        with np.load(round_dir / "coverage.npz") as data:
            coverage_state = {name: data[name] for name in data.files}
        loader = load_flat_collection if backend == "flat" else load_collection
        stores: Dict[str, List] = {}
        for key in state["collection_keys"]:
            stores[key] = [
                loader(round_dir / f"machine{machine_id}-{key}.npz")
                for machine_id in range(num_machines)
            ]
        return DriverSnapshot(
            round_index=int(state["round_index"]),
            rule_state=state["rule"]["state"],
            coverage_state=coverage_state,
            stores=stores,
            recovery=state.get("recovery", []),
        )


def manager_for(checkpoint_dir: str | os.PathLike | None, **config) -> CheckpointManager | None:
    """Build the manager the algorithm entry points share.

    ``None`` when checkpointing is disabled; ``config`` becomes the
    snapshot's identifying run configuration.
    """
    if checkpoint_dir is None:
        return None
    return CheckpointManager(checkpoint_dir, config)
