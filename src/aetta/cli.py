"""Command-line front end: experiment runs, the collapse-recovery demo, and small sweeps."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness
from .streams import CorruptionSpec
from .tta import RecoveryPolicy

log = logging.getLogger(__name__)

_DEFAULT_FULLY = CorruptionSpec(kind="gaussian_noise", severity=3, seed=0)
_SWEEP_GRIDS = (("n_dropout", (1, 5, 10, 15, 20)), ("alpha", (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)))


def _add_experiment_flags(parser: argparse.ArgumentParser, scenario_flags: bool = True) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="run seed; repeat the flag for several")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--alpha", type=float, default=None, help="robustness exponent")
    parser.add_argument("--n-dropout", type=int, default=None, help="dropout inferences per batch")
    if scenario_flags:
        parser.add_argument("--scenario", choices=("fully", "continual"), default=None)
        parser.add_argument("--collapse", action="store_true",
                            help="use the model-collapse preset (high-rate entropy adaptation)")


def _config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    """File values first, then flag overrides."""
    config = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    updates: dict = {}
    if args.seed:
        updates["seeds"] = tuple(args.seed)
    if args.scenario:
        updates["scenario"] = args.scenario
    if args.alpha is not None or args.n_dropout is not None:
        est = config.estimator
        if args.alpha is not None:
            est = dataclasses.replace(est, alpha=args.alpha)
        if args.n_dropout is not None:
            est = dataclasses.replace(est, n_dropout=args.n_dropout)
        updates["estimator"] = est
    scenario = updates.get("scenario", config.scenario)
    if scenario == "fully" and config.fully_corruption is None:
        updates["fully_corruption"] = _DEFAULT_FULLY
    if updates:
        config = dataclasses.replace(config, **updates)
    if args.collapse:
        config = harness.collapse_preset(config)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = harness.run_experiment(config)
    written = harness.emit_outputs(result, args.out or Path("out"))
    for path in written:
        log.info("wrote %s", path)
    # the summary that emit_outputs wrote, whose repr floats read back exactly
    summary = next(path for path in written if path.name == "summary.csv")
    with open(summary, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["scope"] == "overall":
                mean, std = float(row["mae_mean"]), float(row["mae_std"])
                print(f"{row['estimator']:12s} MAE {mean:.4f} +/- {std:.4f} ({100 * mean:.2f}%)")
    for outcome in result.outcomes:
        if outcome.error is not None:
            print(f"seed {outcome.seed} FAILED: {outcome.error}", file=sys.stderr)
    return 1 if result.failed else 0


def _cmd_recover_demo(args: argparse.Namespace) -> int:
    base = harness.collapse_preset(_config_from_args(args))
    print("collapse preset, with and without estimator-triggered rollback:")
    failed = False
    for kind in ("none", "aetta_reset"):
        config = dataclasses.replace(base, recovery=RecoveryPolicy(kind=kind))
        result = harness.run_experiment(config)
        failed = failed or result.failed
        true_means = [
            float(np.mean([r.true_accuracy for r in recs]))
            for recs in result.records_by_seed
        ]
        resets = sum(r.reset for recs in result.records_by_seed for r in recs)
        print(f"  recovery={kind:12s} mean true accuracy {np.mean(true_means):.4f} "
              f"({resets} resets)")
        if args.out and kind == "aetta_reset":
            for path in harness.emit_outputs(result, Path(args.out)):
                log.info("wrote %s", path)
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    base = dataclasses.replace(base, estimators_enabled=("aetta",))
    lines = ["param,value,mae_mean"]
    failed = False

    for param, values in _SWEEP_GRIDS:
        print(f"{param} sweep:")
        for value in values:
            config = dataclasses.replace(
                base, estimator=dataclasses.replace(base.estimator, **{param: value}))
            result = harness.run_experiment(config)
            failed = failed or result.failed
            mae = harness.seed_mean_mae(result.records_by_seed, "aetta")
            print(f"  {param}={value}  MAE {mae:.4f}")
            lines.append(f"{param},{value},{mae!r}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
        log.info("wrote %s", out / "sweep.csv")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aetta",
        description="Label-free accuracy estimation for test-time-adapted classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write CSV/SVG outputs")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_rec = sub.add_parser("recover-demo", help="collapse run with and without rollback")
    _add_experiment_flags(p_rec, scenario_flags=False)
    p_rec.set_defaults(func=_cmd_recover_demo, scenario=None, collapse=False)

    p_sweep = sub.add_parser("sweep", help="MAE over ensemble-size and exponent grids")
    _add_experiment_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns errors into exit codes
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
