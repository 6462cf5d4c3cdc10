"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "diimm"
        assert args.k == 50
        assert args.executor == "simulated"
        assert args.backend == "flat"

    def test_run_executor_and_backend_choices(self):
        args = build_parser().parse_args(
            ["run", "--executor", "multiprocessing", "--backend", "sketch"]
        )
        assert args.executor == "multiprocessing"
        assert args.backend == "sketch"
        # --executor is a free-form ExecutorSpec shorthand now, so the
        # parser accepts any string and validation happens in RunConfig.
        args = build_parser().parse_args(["run", "--executor", "socket:2"])
        assert args.executor == "socket:2"
        for retired in ("sparse", "reference"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--backend", retired])

    def test_choices_are_the_config_constants(self):
        """Every choice list is read from the module that validates it."""
        from repro.api import ALGORITHMS
        from repro.core.config import BACKENDS, MODELS

        subparsers = next(
            action for action in build_parser()._actions if action.dest == "command"
        ).choices

        def choices(command, flag):
            (action,) = (a for a in subparsers[command]._actions if flag in a.option_strings)
            return tuple(action.choices)

        assert choices("run", "--algorithm") == ALGORITHMS
        assert choices("run", "--model") == MODELS
        assert choices("run", "--backend") == BACKENDS
        assert choices("serve", "--model") == MODELS
        assert choices("validate", "--model") == MODELS
        # ``method`` selects nothing any more: neither command offers it.
        for command in ("run", "serve"):
            flags = {flag for a in subparsers[command]._actions for flag in a.option_strings}
            assert "--method" not in flags
        # Each algorithm has one stopping rule: no flag picks another.
        run_flags = {flag for a in subparsers["run"]._actions for flag in a.option_strings}
        assert "--stopping" not in run_flags

    def test_run_rejects_bad_executor_spec(self, capsys):
        code = main(["run", "--dataset", "facebook", "--k", "2", "--executor", "mpi"])
        assert code == 2
        assert "config.executor" in capsys.readouterr().err

    def test_algorithm_choices_are_the_registry(self):
        from repro.api import ALGORITHMS

        for name in ALGORITHMS:
            assert build_parser().parse_args(["run", "--algorithm", name]).algorithm == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "greedy"])

    def test_run_dsubsim_refuses_lt(self, capsys):
        """--model reaches validate() as given: D-SUBSIM is IC-only, and the
        CLI says so instead of answering a different question."""
        args = ["run", "--dataset", "facebook", "--k", "2", "--algorithm", "dsubsim"]
        assert main(args + ["--model", "lt"]) == 2
        captured = capsys.readouterr()
        assert "config.model must be 'ic' for dsubsim" in captured.err
        assert "seeds:" not in captured.out
        assert main(args + ["--eps", "0.7"]) == 0  # the default --model ic
        assert "DSUBSIM on facebook" in capsys.readouterr().out

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "facebook" in out
        assert "paper_nodes" in out

    def test_run_imm_small(self, capsys):
        code = main(
            [
                "run", "--dataset", "facebook", "--algorithm", "imm",
                "--k", "5", "--eps", "0.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IMM on facebook" in out
        assert "seeds:" in out

    def test_run_diimm(self, capsys):
        code = main(
            [
                "run", "--dataset", "facebook", "--k", "5", "--eps", "0.6",
                "--machines", "2", "--network", "cluster",
            ]
        )
        assert code == 0
        assert "DIIMM on facebook" in capsys.readouterr().out

    def test_run_diimm_multiprocessing_reference(self, capsys):
        """The retired dict-store backend is refused (exit 2); the
        --executor flag reaches the algorithm and agrees with the default
        simulated run on the seed set."""
        args = [
            "run", "--dataset", "facebook", "--k", "3", "--eps", "0.7",
            "--machines", "2", "--executor", "multiprocessing",
        ]
        with pytest.raises(SystemExit) as refused:
            main(args + ["--backend", "reference"])
        assert refused.value.code == 2
        assert "invalid choice: 'reference'" in capsys.readouterr().err
        code = main(args + ["--backend", "flat"])
        assert code == 0
        mp_out = capsys.readouterr().out
        assert "DIIMM on facebook" in mp_out
        code = main(
            [
                "run", "--dataset", "facebook", "--k", "3", "--eps", "0.7",
                "--machines", "2",
            ]
        )
        assert code == 0
        default_out = capsys.readouterr().out
        seeds = lambda out: out[out.index("seeds:") :]  # noqa: E731
        assert seeds(mp_out) == seeds(default_out)

    def test_validate(self, capsys):
        code = main(
            ["validate", "--dataset", "facebook", "--seeds", "0,1,2",
             "--samples", "50"]
        )
        assert code == 0
        assert "sigma" in capsys.readouterr().out

    def test_validate_bad_seed_list(self, capsys):
        code = main(["validate", "--dataset", "facebook", "--seeds", "a,b"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3", "--datasets", "facebook"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "facebook" in out

    def test_app_targeted(self, capsys):
        code = main(
            ["app", "targeted", "--dataset", "facebook", "--machines", "2",
             "--rr-sets", "1000", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "targeted-influence-maximization" in out
        assert "seeds:" in out

    def test_app_seedmin(self, capsys):
        code = main(
            ["app", "seedmin", "--dataset", "facebook", "--machines", "2",
             "--rr-sets", "1000", "--required-spread", "200"]
        )
        assert code == 0
        assert "seed-minimization" in capsys.readouterr().out

    def test_app_adaptive(self, capsys):
        code = main(
            ["app", "adaptive", "--dataset", "facebook", "--machines", "2",
             "--rr-sets", "600", "--k", "3"]
        )
        assert code == 0
        assert "adaptive-influence-maximization" in capsys.readouterr().out

    def test_app_bad_name(self):
        with pytest.raises(SystemExit):
            main(["app", "unknown"])


class TestCheckpointFlags:
    def test_parser_accepts_checkpoint_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--checkpoint-dir", str(tmp_path), "--resume"]
        )
        assert args.checkpoint_dir == str(tmp_path)
        assert args.resume is True
        defaults = build_parser().parse_args(["run"])
        assert defaults.checkpoint_dir is None
        assert defaults.resume is False

    def test_resume_requires_checkpoint_dir(self, capsys):
        code = main(["run", "--dataset", "facebook", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_kill_and_resume_reaches_identical_seeds(
        self, tmp_path, capsys, monkeypatch
    ):
        """A run killed mid-round, resumed through the CLI, prints the
        exact seed set an uninterrupted run prints."""
        from repro.core.driver import RoundDriver

        run_args = [
            "run", "--dataset", "facebook", "--k", "3", "--eps", "0.7",
            "--machines", "2",
        ]
        assert main(run_args) == 0
        reference_out = capsys.readouterr().out

        original = RoundDriver._select
        state = {"calls": 0, "armed": True}

        def crashing(self, round_label):
            state["calls"] += 1
            if state["armed"] and state["calls"] == 2:
                state["armed"] = False
                raise RuntimeError("killed mid-round")
            return original(self, round_label)

        monkeypatch.setattr(RoundDriver, "_select", crashing)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RuntimeError, match="killed mid-round"):
            main(run_args + ["--checkpoint-dir", str(ckpt)])
        capsys.readouterr()
        assert any(p.name.startswith("round-") for p in ckpt.iterdir())

        code = main(run_args + ["--checkpoint-dir", str(ckpt), "--resume"])
        assert code == 0
        resumed_out = capsys.readouterr().out
        seeds = lambda out: out[out.index("seeds:") :]
        assert seeds(resumed_out) == seeds(reference_out)
