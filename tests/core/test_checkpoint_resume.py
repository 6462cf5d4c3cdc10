"""Driver checkpoint/resume: crash mid-run, continue to the same answer.

An RR set's randomness is a function of its coordinates (seed,
collection, machine, index), and a snapshot's collections say how many of
each were drawn; a resumed run therefore replays the interrupted round
bit-for-bit — with no RNG state saved — and must finish with the
*identical* result an uninterrupted run produces.
"""

from __future__ import annotations

import json

import pytest

from repro.core import CheckpointManager, diimm, distributed_ssa
from repro.core.checkpoint import (
    DRIVER_CHECKPOINT_MAGIC,
    DRIVER_CHECKPOINT_VERSION,
)
from repro.core.driver import RoundDriver
from repro.ris import CheckpointFormatError


def assert_same_result(resumed, reference):
    assert resumed.seeds == reference.seeds
    assert resumed.num_rr_sets == reference.num_rr_sets
    assert resumed.total_rr_size == reference.total_rr_size
    assert resumed.total_edges_examined == reference.total_edges_examined
    assert resumed.lower_bound == reference.lower_bound
    assert resumed.search_rounds == reference.search_rounds
    assert resumed.estimated_spread == reference.estimated_spread


def inject_select_crash(monkeypatch, at_call: int):
    """Make RoundDriver._select raise once, on its ``at_call``-th call."""
    original = RoundDriver._select
    state = {"calls": 0, "armed": True}

    def crashing(self, round_label):
        state["calls"] += 1
        if state["armed"] and state["calls"] == at_call:
            state["armed"] = False
            raise RuntimeError("injected crash")
        return original(self, round_label)

    monkeypatch.setattr(RoundDriver, "_select", crashing)
    return state


class TestResume:
    def test_diimm_resume_reproduces_result(self, small_wc_graph, tmp_path):
        reference = diimm(small_wc_graph, 4, 3, eps=0.5, seed=11)
        ckpt = tmp_path / "run"
        first = diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt))
        assert_same_result(first, reference)
        # One snapshot per continued round: 3 search rounds, stop in final.
        rounds = sorted(p.name for p in ckpt.iterdir())
        assert rounds == ["round-0001", "round-0002", "round-0003"]

        resumed = diimm(
            small_wc_graph, 4, 3, eps=0.5, seed=11,
            checkpoint_dir=str(ckpt), resume=True,
        )
        assert_same_result(resumed, reference)

    def test_diimm_resume_after_crash(self, small_wc_graph, tmp_path, monkeypatch):
        reference = diimm(small_wc_graph, 4, 3, eps=0.5, seed=11)
        ckpt = tmp_path / "run"
        inject_select_crash(monkeypatch, at_call=2)
        with pytest.raises(RuntimeError, match="injected crash"):
            diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt))
        # The crash hit round 2; only round 1's snapshot exists.
        assert [p.name for p in sorted(ckpt.iterdir())] == ["round-0001"]

        resumed = diimm(
            small_wc_graph, 4, 3, eps=0.5, seed=11,
            checkpoint_dir=str(ckpt), resume=True,
        )
        assert_same_result(resumed, reference)

    def test_dssa_resume_multi_collection(self, small_wc_graph, tmp_path, monkeypatch):
        """Both the select and verify collections survive the crash."""
        reference = distributed_ssa(small_wc_graph, 4, 3, eps=0.5, seed=11)
        ckpt = tmp_path / "run"
        inject_select_crash(monkeypatch, at_call=3)
        with pytest.raises(RuntimeError, match="injected crash"):
            distributed_ssa(
                small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt)
            )
        latest = ckpt / "round-0002"
        for key in ("select", "verify"):
            for machine_id in range(3):
                assert (latest / f"machine{machine_id}-{key}.npz").is_file()

        resumed = distributed_ssa(
            small_wc_graph, 4, 3, eps=0.5, seed=11,
            checkpoint_dir=str(ckpt), resume=True,
        )
        assert_same_result(resumed, reference)


class TestValidation:
    def test_resume_from_empty_directory(self, small_wc_graph, tmp_path):
        with pytest.raises(FileNotFoundError, match="no driver checkpoint"):
            diimm(
                small_wc_graph, 4, 3, eps=0.5, seed=11,
                checkpoint_dir=str(tmp_path / "missing"), resume=True,
            )

    def test_config_mismatch_refused(self, small_wc_graph, tmp_path):
        ckpt = tmp_path / "run"
        diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt))
        with pytest.raises(CheckpointFormatError, match="differing keys.*'k'"):
            diimm(
                small_wc_graph, 5, 3, eps=0.5, seed=11,
                checkpoint_dir=str(ckpt), resume=True,
            )

    def test_rule_mismatch_refused(self, small_wc_graph, tmp_path):
        ckpt = tmp_path / "run"
        diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt))
        with pytest.raises(CheckpointFormatError, match="written by rule"):
            distributed_ssa(
                small_wc_graph, 4, 3, eps=0.5, seed=11,
                checkpoint_dir=str(ckpt), resume=True,
            )

    @staticmethod
    def _fake_snapshot(directory, **overrides):
        round_dir = directory / "round-0001"
        round_dir.mkdir(parents=True)
        state = {
            "magic": DRIVER_CHECKPOINT_MAGIC,
            "version": DRIVER_CHECKPOINT_VERSION,
            "round_index": 1,
            "rule": {"name": "imm-schedule", "state": {}},
            "collection_keys": ["main"],
            "num_machines": 1,
            "config": {},
        }
        state.update(overrides)
        (round_dir / "state.json").write_text(json.dumps(state))

    def test_foreign_state_json_refused(self, tmp_path):
        self._fake_snapshot(tmp_path, magic="someone-elses-checkpoint")
        manager = CheckpointManager(tmp_path, config={})
        with pytest.raises(CheckpointFormatError, match="not a driver checkpoint"):
            manager.load_latest("imm-schedule", ["main"], 1, "flat")

    def test_version_mismatch_refused(self, tmp_path):
        self._fake_snapshot(tmp_path, version=DRIVER_CHECKPOINT_VERSION + 1)
        manager = CheckpointManager(tmp_path, config={})
        with pytest.raises(CheckpointFormatError, match="driver-checkpoint version"):
            manager.load_latest("imm-schedule", ["main"], 1, "flat")

    def test_parent_written_checkpoint_refused(self, small_wc_graph, tmp_path):
        """A version-1 snapshot carried sequential machine-stream states
        this build no longer draws from: resuming it is refused with the
        "regenerate" message, never silently continued on other streams."""
        ckpt = tmp_path / "run"
        diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, checkpoint_dir=str(ckpt))
        for state_path in ckpt.glob("round-*/state.json"):
            state = json.loads(state_path.read_text())
            assert "rng_states" not in state and state["version"] == 2
            state.update(version=1, rng_states=[{}] * 3)
            state_path.write_text(json.dumps(state))
        with pytest.raises(CheckpointFormatError, match="version 1.*regenerate"):
            diimm(
                small_wc_graph, 4, 3, eps=0.5, seed=11,
                checkpoint_dir=str(ckpt), resume=True,
            )

    def test_shape_mismatch_refused(self, tmp_path):
        self._fake_snapshot(tmp_path)
        manager = CheckpointManager(tmp_path, config={})
        with pytest.raises(CheckpointFormatError, match="machines"):
            manager.load_latest("imm-schedule", ["main"], 2, "flat")

    def test_torn_write_leaves_previous_snapshot(self, tmp_path):
        """A stray tmp dir (simulating a crash mid-write) is ignored."""
        self._fake_snapshot(tmp_path)
        (tmp_path / ".tmp-round-0002").mkdir()
        manager = CheckpointManager(tmp_path, config={})
        assert manager.latest_round() == 1
