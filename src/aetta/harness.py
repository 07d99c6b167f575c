"""Experiment driver: streams batches through adaptation, scores every estimator
against hidden labels, applies recovery policies, and writes CSV/SVG outputs."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nn, plots
from .estimators import (
    AettaConfig,
    EstimateReport,
    adv_perturb_agreement,
    aetta_estimate,
    fresh_state,
    gde_agreement,
    predicted_labels,
    softmax_score,
    src_valid,
)
from .streams import (
    Continual,
    CorruptionSpec,
    DatasetSpec,
    Fully,
    collapse_schedule,
    default_continual_schedule,
    make_stream,
    prepared_task,
)
from .tta import (
    TRIGGER_EXTERNAL,
    AdaptConfig,
    RecoveryPolicy,
    ResetContext,
    apply_reset,
    bn_stats_step,
    make_optimizer,
    should_reset,
    stochastic_restore_step,
    tent_step,
)

log = logging.getLogger(__name__)


class HarnessError(ValueError):
    pass


ESTIMATOR_NAMES = ("srcvalid", "softmax", "gde", "advperturb", "aetta")
SCENARIO_KINDS = ("fully", "continual")

CSV_COLUMNS = (
    "t",
    "corruption",
    "severity",
    "true_acc",
    *(f"est_{name}" for name in ESTIMATOR_NAMES),
    *(f"err_{name}" for name in ESTIMATOR_NAMES),
    "reset",
    "trigger",
)

# Learning rate for the collapse preset. TENT with a step this large drives the
# BN affine parameters toward a degenerate low-entropy solution within a few
# severity-5 segments, which is the failure mode the estimators must detect.
COLLAPSE_LEARNING_RATE = 1.5


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = DatasetSpec()
    architecture: tuple[int, ...] = (64, 64)
    train_epochs: int = 30
    adaptation: AdaptConfig = AdaptConfig()
    estimator: AettaConfig = AettaConfig()
    estimators_enabled: tuple[str, ...] = ESTIMATOR_NAMES
    recovery: RecoveryPolicy = RecoveryPolicy()
    scenario: str = "continual"
    fully_corruption: CorruptionSpec | None = None
    n_batches: int | None = None
    batches_per_segment: int = 4
    batch_size: int = 64
    seeds: tuple[int, ...] = (0, 1, 2)
    collapse: bool = False
    holdout_cap: int = 1000
    softmax_temperature: float = 2.0
    adv_epsilon: float = 1.0 / 255.0
    mrs_ema: float = 0.9

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_KINDS:
            raise HarnessError(f"unknown scenario {self.scenario!r}")
        if not self.seeds:
            raise HarnessError("need at least one seed")
        unknown = [e for e in self.estimators_enabled if e not in ESTIMATOR_NAMES]
        if unknown:
            raise HarnessError(f"unknown estimators {unknown}")
        if self.n_batches is not None and self.n_batches < 1:
            raise HarnessError("n_batches must be at least 1")
        if self.batches_per_segment < 1:
            raise HarnessError("batches_per_segment must be at least 1")
        if self.batch_size < 1:
            raise HarnessError("batch_size must be at least 1")
        if self.holdout_cap < 1:
            raise HarnessError("holdout_cap must be at least 1")
        if self.scenario == "fully" and self.fully_corruption is None and not self.collapse:
            raise HarnessError("fully scenario needs a corruption spec")


def collapse_preset(base: ExperimentConfig | None = None) -> ExperimentConfig:
    """High-rate TENT on an all-severity-5 schedule; reliably degrades the model."""
    base = base if base is not None else ExperimentConfig()
    return replace(
        base,
        adaptation=AdaptConfig(method="tent", learning_rate=COLLAPSE_LEARNING_RATE),
        scenario="continual",
        collapse=True,
    )


@dataclass(frozen=True)
class RunRecord:
    seed: int
    batch_index: int
    corruption_id: str
    severity: int
    true_accuracy: float
    estimates: dict[str, float]
    reset: bool
    trigger: str
    aetta_report: EstimateReport | None = None

    def abs_error(self, estimator: str) -> float:
        return abs(self.true_accuracy - self.estimates[estimator])


@dataclass
class SeedOutcome:
    seed: int
    records: list[RunRecord]
    error: str | None = None


@dataclass(frozen=True)
class SummaryRow:
    scope: str
    estimator: str
    mae_mean: float
    mae_std: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    outcomes: list[SeedOutcome]

    @property
    def failed(self) -> bool:
        return any(o.error is not None for o in self.outcomes)

    @property
    def records_by_seed(self) -> list[list[RunRecord]]:
        return [o.records for o in self.outcomes if o.error is None]


def mae(records: list[RunRecord], estimator: str) -> float:
    """Mean absolute error of one estimator against true accuracy, in [0, 1]."""
    if not records:
        raise HarnessError("no records to score")
    if estimator not in records[0].estimates:
        raise HarnessError(f"estimator {estimator!r} was not enabled")
    return float(np.mean([r.abs_error(estimator) for r in records]))


def seed_mean_mae(records_by_seed: list[list[RunRecord]], estimator: str) -> float:
    """Per-seed MAEs averaged with equal seed weight."""
    if not records_by_seed:
        raise HarnessError("no successful seeds to score")
    return float(np.mean([mae(records, estimator) for records in records_by_seed]))


def _adaptation_step(
    config: ExperimentConfig,
    model: nn.MlpModel,
    x: np.ndarray,
    optimizer: nn.OptimizerState,
) -> None:
    method = config.adaptation.method
    if method == "tent":
        tent_step(model, x, config.adaptation, optimizer)
    elif method == "bn_stats":
        bn_stats_step(model, x)
    elif method != "none":
        raise HarnessError(f"unknown adaptation method {method!r}")


def _build_scenario(config: ExperimentConfig, seed: int) -> Fully | Continual:
    if config.scenario == "fully":
        if config.collapse:
            corruption = CorruptionSpec(kind="gaussian_noise", severity=5, seed=seed * 100)
        else:
            corruption = config.fully_corruption
        return Fully(corruption=corruption, n_batches=config.n_batches)
    if config.collapse:
        schedule = collapse_schedule(seed=seed)
    else:
        schedule = default_continual_schedule(seed=seed)
    return Continual(schedule=schedule, batches_per_segment=config.batches_per_segment)


def _run_seed(config: ExperimentConfig, seed: int) -> list[RunRecord]:
    task = prepared_task(
        config.dataset,
        architecture=config.architecture,
        epochs=config.train_epochs,
        train_seed=seed,
    )
    source = task.checkpoint
    model = task.model
    optimizer = make_optimizer(config.adaptation)

    cap = min(config.holdout_cap, len(task.holdout))
    holdout_x = task.holdout.features[:cap]
    holdout_y = task.holdout.labels[:cap]
    feature_scale = task.train.features.max(axis=0) - task.train.features.min(axis=0)

    stream = make_stream(
        _build_scenario(config, seed),
        task.holdout,
        batch_size=config.batch_size,
        seed=seed,
    )

    enabled = config.estimators_enabled
    # the window-degradation trigger compares the last two windows of accuracies
    est_state = fresh_state(2 * config.recovery.window)
    # GDE compares against the model before the last adaptation step; nothing else reads it
    gde = "gde" in enabled
    prev_model = nn.clone(model) if gde else None
    entropy_ema: float | None = None
    episodic = config.recovery.kind == "episodic"
    records: list[RunRecord] = []

    for batch in stream:
        x = batch.features

        # one deterministic forward of the current model serves every consumer
        logits = nn.forward_logits(model, x, nn.Deterministic())
        probs = nn.softmax(logits)
        labels = predicted_labels(probs)
        # an infinite bias can vanish behind a relu or the softmax, so the
        # parameters are checked as well as the predictions
        params_finite = all(np.isfinite(p).all() for _, p in nn.named_parameters(model))
        non_finite = not (params_finite and np.isfinite(probs).all())
        true_accuracy = float(np.mean(labels == batch.hidden_labels))
        batch_entropy = nn.entropy_loss(probs)
        if entropy_ema is None:
            entropy_ema = batch_entropy
        else:
            entropy_ema = config.mrs_ema * entropy_ema + (1.0 - config.mrs_ema) * batch_entropy
        estimates: dict[str, float] = {}
        report: EstimateReport | None = None
        if "softmax" in enabled:
            estimates["softmax"] = softmax_score(logits, temperature=config.softmax_temperature)
        # dropped before the other estimators allocate, to keep the batch's peak memory down
        del logits, probs

        if "srcvalid" in enabled:
            estimates["srcvalid"] = src_valid(model, holdout_x, holdout_y)
        if gde:
            estimates["gde"] = gde_agreement(labels, prev_model, x)
        if "advperturb" in enabled:
            estimates["advperturb"] = adv_perturb_agreement(
                source, model, x, epsilon=config.adv_epsilon, feature_scale=feature_scale
            )
        if "aetta" in enabled:
            report, est_state = aetta_estimate(model, x, labels, config.estimator, est_state)
            estimates["aetta"] = report.smoothed_accuracy

        context = ResetContext(
            entropy_ema=entropy_ema, at_corruption_boundary=batch.at_boundary, non_finite=non_finite
        )
        fire, trigger = should_reset(config.recovery, est_state, context)
        did_reset = False
        if fire and not episodic:
            model, optimizer = apply_reset(model, optimizer, source)
            did_reset = True
            if config.recovery.kind == "mrs":
                entropy_ema = None

        if gde:
            prev_model = nn.clone(model)
        _adaptation_step(config, model, x, optimizer)
        if config.recovery.kind == "stochastic_restore":
            stochastic_restore_step(
                model,
                source,
                restore_prob=config.recovery.restore_prob,
                seed=seed * 1_000_003 + batch.batch_index,
            )
        if episodic:
            model, optimizer = apply_reset(model, optimizer, source)
            did_reset = True
            trigger = TRIGGER_EXTERNAL

        records.append(
            RunRecord(
                seed=seed,
                batch_index=batch.batch_index,
                corruption_id=batch.corruption_id,
                severity=batch.severity,
                true_accuracy=true_accuracy,
                estimates=estimates,
                reset=did_reset,
                trigger=trigger if did_reset else "",
                aetta_report=report,
            )
        )
    if not records:
        raise HarnessError("scenario produced no batches")
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed independently; a failed seed is recorded, not fatal."""
    outcomes: list[SeedOutcome] = []
    for seed in config.seeds:
        try:
            outcomes.append(SeedOutcome(seed=seed, records=_run_seed(config, seed)))
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            log.error("seed %d failed: %s", seed, exc)
            outcomes.append(SeedOutcome(seed=seed, records=[], error=str(exc)))
    if all(o.error is not None for o in outcomes):
        raise HarnessError(f"all seeds failed; first error: {outcomes[0].error}")
    return ExperimentResult(config=config, outcomes=outcomes)


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-estimator MAE mean/std over seeds, overall and per corruption."""
    by_seed = result.records_by_seed
    if not by_seed:
        raise HarnessError("no successful seeds to summarize")
    enabled = result.config.estimators_enabled
    scopes: list[tuple[str, list[list[RunRecord]]]] = [("overall", by_seed)]
    corruption_ids: list[str] = []
    for records in by_seed:
        for r in records:
            if r.corruption_id not in corruption_ids:
                corruption_ids.append(r.corruption_id)
    for cid in sorted(corruption_ids):
        subsets = [[r for r in records if r.corruption_id == cid] for records in by_seed]
        scopes.append((cid, [s for s in subsets if s]))
    rows: list[SummaryRow] = []
    for scope, groups in scopes:
        for estimator in ESTIMATOR_NAMES:
            if estimator not in enabled:
                continue
            maes = [mae(records, estimator) for records in groups]
            rows.append(
                SummaryRow(
                    scope=scope,
                    estimator=estimator,
                    mae_mean=float(np.mean(maes)),
                    mae_std=float(np.std(maes)),
                )
            )
    return rows


def _csv_row(record: RunRecord) -> dict[str, str]:
    """Disabled estimators have no key, so their columns stay empty."""
    row = {
        "t": str(record.batch_index),
        "corruption": record.corruption_id,
        "severity": str(record.severity),
        "true_acc": repr(record.true_accuracy),
        "reset": "1" if record.reset else "0",
        "trigger": record.trigger,
    }
    for name, value in record.estimates.items():
        row[f"est_{name}"] = repr(value)
        row[f"err_{name}"] = repr(record.abs_error(name))
    return row


def write_run_csv(result: ExperimentResult, path: str | Path) -> None:
    """All seeds concatenated in seed order; batch index restarts per seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for records in result.records_by_seed:
            writer.writerows(_csv_row(record) for record in records)


def load_run_csv(path: str | Path) -> list[list[RunRecord]]:
    """Inverse of write_run_csv; seeds are split where the batch index restarts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise HarnessError(f"unexpected CSV header {reader.fieldnames}")
        by_seed: list[list[RunRecord]] = []
        current: list[RunRecord] = []
        for row in reader:
            t = int(row["t"])
            if current and t <= current[-1].batch_index:
                by_seed.append(current)
                current = []
            current.append(
                RunRecord(
                    seed=len(by_seed),
                    batch_index=t,
                    corruption_id=row["corruption"],
                    severity=int(row["severity"]),
                    true_accuracy=float(row["true_acc"]),
                    estimates={
                        name: float(row[f"est_{name}"]) for name in ESTIMATOR_NAMES if row[f"est_{name}"]
                    },
                    reset=row["reset"] == "1",
                    trigger=row["trigger"],
                )
            )
        if current:
            by_seed.append(current)
    return by_seed


def write_summary_csv(rows: list[SummaryRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "estimator", "mae_mean", "mae_std", "mae_mean_pct"])
        for row in rows:
            writer.writerow(
                [row.scope, row.estimator, repr(row.mae_mean), repr(row.mae_std),
                 f"{100.0 * row.mae_mean:.2f}"]
            )


def emit_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """run.csv, summary.csv, and one trace chart per enabled estimator."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    run_path = out / "run.csv"
    write_run_csv(result, run_path)
    written.append(run_path)

    summary_path = out / "summary.csv"
    write_summary_csv(summarize(result), summary_path)
    written.append(summary_path)

    trace = result.records_by_seed[0]
    true_acc = [r.true_accuracy for r in trace]
    resets = [r.batch_index for r in trace if r.reset]
    for name in ESTIMATOR_NAMES:
        if name not in result.config.estimators_enabled:
            continue
        svg_path = out / f"trace_{name}.svg"
        plots.accuracy_trace_svg(
            true_acc,
            [r.estimates[name] for r in trace],
            resets,
            f"{name}: estimated vs true accuracy (seed {trace[0].seed})",
            svg_path,
        )
        written.append(svg_path)
    return written


_NESTED_FIELDS = {
    "dataset": DatasetSpec,
    "adaptation": AdaptConfig,
    "estimator": AettaConfig,
    "recovery": RecoveryPolicy,
    "fully_corruption": CorruptionSpec,
}
_TUPLE_FIELDS = {"architecture", "estimators_enabled", "seeds"}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Partial dicts are fine; unknown keys are rejected to catch typos."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise HarnessError(f"unknown config keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED_FIELDS and value is not None:
            if not isinstance(value, dict):
                raise HarnessError(f"config key {key!r} must be an object")
            cls = _NESTED_FIELDS[key]
            nested_known = {f.name for f in dataclasses.fields(cls)}
            nested_unknown = set(value) - nested_known
            if nested_unknown:
                raise HarnessError(f"unknown {key} keys {sorted(nested_unknown)}")
            coerced = {
                k: tuple(v) if isinstance(v, list) else v for k, v in value.items()
            }
            kwargs[key] = cls(**coerced)
        elif key in _TUPLE_FIELDS:
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2)
        fh.write("\n")
