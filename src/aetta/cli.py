"""Command-line front end: experiment runs, identity checks, and small sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness, nn, oracle
from .streams import CorruptionSpec
from .tta import RecoveryPolicy

log = logging.getLogger(__name__)

_DEFAULT_FULLY = CorruptionSpec(kind="gaussian_noise", severity=3, seed=0)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="run seed; repeat the flag for several")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--alpha", type=float, default=None, help="robustness exponent")
    parser.add_argument("--n-dropout", type=int, default=None, help="dropout inferences per batch")
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
    if (
        scenario == "fully"
        and config.fully_corruption is None
        and not args.collapse
        and not config.collapse
    ):
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
    for row in harness.summarize(result):
        if row.scope == "overall":
            print(f"{row.estimator:12s} MAE {row.mae_mean:.4f} +/- {row.mae_std:.4f} "
                  f"({100 * row.mae_mean:.2f}%)")
    for outcome in result.outcomes:
        if outcome.error is not None:
            print(f"seed {outcome.seed} FAILED: {outcome.error}", file=sys.stderr)
    return 1 if result.failed else 0


def _cmd_verify_theorems(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed[0] if args.seed else 0)
    worst_calibrated = 0.0
    for _ in range(200):
        space = oracle.random_calibrated_space(
            int(rng.integers(1, 21)), int(rng.integers(2, 11)), rng
        )
        worst_calibrated = max(worst_calibrated, oracle.verify_theorem1(space))
    control = oracle.verify_theorem1(oracle.mis_calibrated_fixture())
    print("calibrated spaces (200): max |E[Err] - E[PDD]| =", repr(worst_calibrated))
    print("mis-calibrated control:  residual =", repr(control))

    rows = oracle.theorem2_sweep()
    worst_robust = max(residual for _, _, residual in rows)
    print(f"robust constructions ({len(rows)}): max residual = {worst_robust!r}")
    print("    q0      b       residual")
    for q0, b, residual in rows[:10]:
        print(f"  {q0:6.3f} {b:6.3f}  {residual:.3e}")
    print(f"  ... {len(rows) - 10} more rows")

    ok = worst_calibrated <= 1e-12 and worst_robust <= 1e-10 and control >= 1e-3
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = 0.0
    checked = 0
    seed = args.seed[0] if args.seed else 0
    rng = np.random.default_rng(seed)
    while checked < 20:
        input_dim = int(rng.integers(2, 6))
        model = nn.build_mlp(input_dim, int(rng.integers(2, 5)),
                             hidden=(int(rng.integers(3, 8)),),
                             seed=int(rng.integers(0, 10_000)))
        x = rng.normal(size=(4, input_dim))
        if nn.relu_kink_margin(model, x, nn.Deterministic()) < 1e-3:
            continue
        analytic = nn.backward(model, x, loss="entropy", mode=nn.Deterministic())
        numeric = nn.finite_difference_gradients(model, x, loss="entropy", mode=nn.Deterministic())
        err = nn.gradcheck_max_error(analytic, numeric)
        worst = max(worst, err)
        checked += 1
    print(f"20 random models: max scaled gradient error = {worst!r}")
    ok = worst <= 1e-4
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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

    print("ensemble size sweep:")
    for n in (1, 5, 10, 15, 20):
        config = dataclasses.replace(
            base, estimator=dataclasses.replace(base.estimator, n_dropout=n))
        result = harness.run_experiment(config)
        failed = failed or result.failed
        value = harness.seed_mean_mae(result.records_by_seed, "aetta")
        print(f"  N={n:2d}  MAE {value:.4f}")
        lines.append(f"n_dropout,{n},{value!r}")

    print("robustness exponent sweep:")
    for alpha in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
        config = dataclasses.replace(
            base, estimator=dataclasses.replace(base.estimator, alpha=alpha))
        result = harness.run_experiment(config)
        failed = failed or result.failed
        value = harness.seed_mean_mae(result.records_by_seed, "aetta")
        print(f"  alpha={alpha:3.1f}  MAE {value:.4f}")
        lines.append(f"alpha,{alpha},{value!r}")

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
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-theorems", help="print disagreement-identity residuals")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify_theorems)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common_flags(p_grad)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_rec = sub.add_parser("recover-demo", help="collapse run with and without rollback")
    _add_common_flags(p_rec)
    p_rec.set_defaults(func=_cmd_recover_demo)

    p_sweep = sub.add_parser("sweep", help="MAE over ensemble-size and exponent grids")
    _add_common_flags(p_sweep)
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
