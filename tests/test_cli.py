import json
from pathlib import Path

import pytest

from aetta import cli, harness
from aetta.streams import CorruptionSpec, DatasetSpec


def tiny_config_dict():
    return {
        "dataset": {"class_count": 3, "input_dim": 4, "samples_per_class": 120, "seed": 0},
        "architecture": [8],
        "train_epochs": 3,
        "scenario": "fully",
        "fully_corruption": {"kind": "gaussian_noise", "severity": 2, "seed": 5},
        "n_batches": 3,
        "batch_size": 16,
        "seeds": [0],
        "estimator": {"n_dropout": 4},
    }


def test_parser_accepts_repeated_seeds_and_preset_flag():
    args = cli.build_parser().parse_args(
        ["run", "--seed", "0", "--seed", "7", "--collapse", "--alpha", "2.5"]
    )
    assert args.seed == [0, 7]
    assert args.collapse
    assert args.alpha == 2.5


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    args = cli.build_parser().parse_args(
        ["run", "--config", str(path), "--seed", "3", "--n-dropout", "6", "--out", "elsewhere"]
    )
    config = cli._config_from_args(args)
    assert config.seeds == (3,)
    assert config.estimator.n_dropout == 6
    assert config.estimator.alpha == 3.0
    assert args.out == Path("elsewhere")
    assert config.dataset == DatasetSpec(class_count=3, input_dim=4, samples_per_class=120, seed=0)


def test_collapse_flag_applies_preset():
    args = cli.build_parser().parse_args(["run", "--collapse"])
    config = cli._config_from_args(args)
    assert config.collapse
    assert config.adaptation.learning_rate == harness.COLLAPSE_LEARNING_RATE


def test_fully_without_corruption_gets_a_default():
    args = cli.build_parser().parse_args(["run", "--scenario", "fully"])
    config = cli._config_from_args(args)
    assert config.fully_corruption == CorruptionSpec(kind="gaussian_noise", severity=3, seed=0)


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "aetta" in out and "MAE" in out
    for name in ("run.csv", "summary.csv", "trace_aetta.svg"):
        assert (tmp_path / "out" / name).exists()


def test_run_exit_code_reflects_seed_failure(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    cfg = tiny_config_dict()
    cfg["seeds"] = [0, 1]
    path.write_text(json.dumps(cfg))

    original = harness._run_seed

    def flaky(config, seed):
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return original(config, seed)

    monkeypatch.setattr(harness, "_run_seed", flaky)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1


def test_broken_config_exits_nonzero(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"batch_sise": 4}))
    assert cli.main(["run", "--config", str(path)]) == 1


def test_verify_theorems_passes():
    assert cli.main(["verify-theorems"]) == 0


def test_gradcheck_passes():
    assert cli.main(["gradcheck"]) == 0


def test_sweep_writes_grid_csv(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,mae_mean"
    params = {line.split(",")[0] for line in lines[1:]}
    assert params == {"n_dropout", "alpha"}
    assert len(lines) == 1 + 5 + 6


def test_recover_demo_prints_both_policies(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    code = cli.main(["recover-demo", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery=none" in out
    assert "recovery=aetta_reset" in out
    assert (tmp_path / "out" / "run.csv").exists()


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])
