import argparse
import json
import re
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
    assert config.scenario == "collapse"
    assert config.adaptation.learning_rate == harness.COLLAPSE_LEARNING_RATE


def test_collapse_with_fully_scenario_names_the_conflict(caplog):
    assert cli.main(["run", "--scenario", "fully", "--collapse"]) == 1
    assert "conflicts with --scenario fully" in caplog.text


@pytest.mark.parametrize("argv", [["run", "--collapse"], ["recover-demo"]])
def test_collapse_rejects_a_fully_config_file(tmp_path, caplog, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert 'collapse preset runs the collapse schedule' in caplog.text
    assert 'a config\'s scenario "fully"' in caplog.text
    assert not (tmp_path / "out").exists()


def test_scenario_flag_rejects_a_fully_config_file(tmp_path, caplog):
    """--scenario continual would otherwise ignore the file's n_batches and fully_corruption."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    argv = ["run", "--config", str(path), "--scenario", "continual", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "n_batches and fully_corruption apply only to the fully scenario" in caplog.text
    assert not (tmp_path / "out").exists()


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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "update, flags, field",
    [
        ({"adaptation": {"learning_rate": NAN}}, [], "learning_rate"),
        ({"estimator": {"alpha": NAN}}, [], "alpha"),
        ({"estimator": {"alpha": INF}}, [], "alpha"),
        ({"recovery": {"kind": "mrs", "mrs_threshold": NAN}}, [], "mrs_threshold"),
        ({"dataset": {"cluster_separation": NAN}}, [], "cluster_separation"),
        ({}, ["--alpha", "nan"], "alpha"),
        ({}, ["--alpha", "inf"], "alpha"),
    ],
    ids=["lr-nan", "alpha-nan", "alpha-inf", "mrs-nan", "separation-nan", "flag-alpha-nan", "flag-alpha-inf"],
)
def test_non_finite_float_settings_are_rejected(tmp_path, caplog, update, flags, field):
    """json reads NaN and Infinity and argparse's float reads nan and inf; a
    non-finite setting passes a bare range check and would run to NaN estimates,
    a pinned AETTA, an MRS reset that never fires, or a failure in every seed."""
    cfg = tiny_config_dict()
    for section, values in update.items():
        cfg[section] = {**cfg.get(section, {}), **values}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), *flags, "--out", str(tmp_path / "out")]) == 1
    assert f"{field} must be finite" in caplog.text
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("flag", [["--scenario", "continual"], ["--collapse"]])
def test_recover_demo_takes_no_scenario_flags(flag):
    """The command always runs the collapse preset, so neither flag could take effect."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["recover-demo", *flag])


def test_recover_demo_prints_both_policies(tmp_path, capsys):
    path = tmp_path / "config.json"
    config = {key: value for key, value in tiny_config_dict().items() if key not in ("fully_corruption", "n_batches")}
    path.write_text(json.dumps({**config, "scenario": "continual"}))
    code = cli.main(["recover-demo", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery=none" in out
    assert "recovery=aetta_reset" in out
    assert (tmp_path / "out" / "run.csv").exists()


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


def test_readme_command_block_lists_exactly_the_parser_subcommands():
    """A command deleted from the parser must leave the README too, and a new one must enter it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    documented = re.findall(r"^aetta ([\w-]+)", block, flags=re.MULTILINE)
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)
