"""Experiment driver: streams batches through adaptation, scores every estimator
against hidden labels, applies recovery policies, and writes CSV/SVG outputs."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import sys
import typing
from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nn, plots
from .estimators import (
    AettaConfig,
    EstimateReport,
    adv_perturb_agreement,
    aetta_estimate,
    gde_agreement,
    predicted_labels,
    softmax_score,
    src_valid,
)
from .streams import (
    MAX_SEVERITY,
    CorruptionSpec,
    DatasetSpec,
    PreparedTask,
    StreamBatch,
    continual_schedule,
    make_stream,
    prepared_task,
)
from .tta import (
    TRIGGER_EXTERNAL,
    AdaptConfig,
    RecoveryPolicy,
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
SCENARIO_KINDS = ("fully", "continual", "collapse")

CSV_COLUMNS = (
    "seed",
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

SRCVALID_ROWS = 1000  # SrcValid scores at most this many leading rows of the labelled holdout
MRS_EMA = 0.9  # weight on history in the entropy-loss EMA that MRS recovery reads
RESTORE_PROB = 0.01  # chance that stochastic restore reverts each scalar parameter after a step


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

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_KINDS:
            raise HarnessError(f"unknown scenario {self.scenario!r}")
        if not self.seeds:
            raise HarnessError("need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise HarnessError(f"seeds must be non-negative, not {self.seeds}")
        repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
        if repeated:
            raise HarnessError(f"seeds {repeated} repeat in {self.seeds}")
        unknown = [e for e in self.estimators_enabled if e not in ESTIMATOR_NAMES]
        if unknown:
            raise HarnessError(f"unknown estimators {unknown}")
        if self.train_epochs < 0:
            raise HarnessError("train_epochs must be non-negative")
        if not self.architecture or any(width < 1 for width in self.architecture):
            raise HarnessError(f"architecture {self.architecture} needs at least one hidden block, each 1+ wide")
        if self.n_batches is not None and self.n_batches < 1:
            raise HarnessError("n_batches must be at least 1")
        if self.batches_per_segment < 1:
            raise HarnessError("batches_per_segment must be at least 1")
        if self.batch_size < 1:
            raise HarnessError("batch_size must be at least 1")
        if self.scenario == "fully" and self.fully_corruption is None:
            raise HarnessError("fully scenario needs a corruption spec")
        if self.scenario != "fully" and (self.n_batches is not None or self.fully_corruption is not None):
            raise HarnessError(
                f"n_batches and fully_corruption apply only to the fully scenario, not {self.scenario!r}"
            )
        # only the AETTA estimator fills the accuracy window that aetta_reset reads
        if self.recovery.kind == "aetta_reset" and "aetta" not in self.estimators_enabled:
            raise HarnessError("aetta_reset recovery needs the aetta estimator enabled")


def collapse_preset(base: ExperimentConfig | None = None) -> ExperimentConfig:
    """High-rate TENT on the all-severity-5 collapse scenario; reliably degrades the model."""
    base = base if base is not None else ExperimentConfig()
    if base.scenario == "fully":
        raise HarnessError(
            'the collapse preset runs the collapse schedule, so it conflicts with --scenario fully'
            ' and with a config\'s scenario "fully"'
        )
    return replace(
        base,
        adaptation=AdaptConfig(method="tent", learning_rate=COLLAPSE_LEARNING_RATE),
        scenario="collapse",
    )


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One batch of one seed's run: what the harness scored and whether it rolled
    the model back. ``estimates`` maps each enabled estimator to its estimate, and
    ``aetta_report`` holds AETTA's internals when it is enabled (never from
    ``load_run_csv``). A run keeps its records in a ``SeedRecords``, which builds
    each one when it is read."""

    seed: int
    batch_index: int
    corruption_id: str
    severity: int
    true_accuracy: float
    estimates: dict[str, float]
    trigger: str  # "" when the model was not rolled back
    aetta_report: EstimateReport | None = None

    @property
    def reset(self) -> bool:
        return self.trigger != ""

    def abs_error(self, estimator: str) -> float:
        return abs(self.true_accuracy - self.estimates[estimator])


_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(EstimateReport))


class SeedRecords(Sequence[RunRecord]):
    """One seed's ``RunRecord``s, kept as one row of doubles per batch.

    A run keeps every batch's record until it ends, so a record is stored as
    its numbers, one row of a single ``array('d')``: the batch index, the
    severity, the true accuracy, each enabled estimate (in ``ESTIMATOR_NAMES``
    order) and then AETTA's report fields, beside two lists of references to
    the corruption and trigger strings, which the batches share. On the default
    config that is about 130 bytes a batch, where a record with its dict,
    report and boxed floats is about 650. A double holds each of these values
    exactly, so every record reads back bitwise as appended, with the index
    and severity as ``int``.

    Indexing builds a ``RunRecord`` (a slice, a list of them). Two stores are
    equal when their seed, estimators, report flag, numbers and strings are; a
    store equals a sequence of the same records.
    """

    __slots__ = ("seed", "estimators", "_reports", "_width", "_numbers", "_corruption", "_trigger")

    def __init__(self, seed: int, estimators: Iterable[str], reports: bool) -> None:
        """``reports``: every record appended carries an ``aetta_report``, else none does."""
        enabled = set(estimators)
        self.seed = seed
        self.estimators = tuple(name for name in ESTIMATOR_NAMES if name in enabled)
        self._reports = bool(reports)
        self._width = 3 + len(self.estimators) + (len(_REPORT_FIELDS) if reports else 0)
        self._numbers = array("d")
        self._corruption: list[str] = []
        self._trigger: list[str] = []

    def append(self, record: RunRecord) -> None:
        if record.estimates.keys() != set(self.estimators):
            raise HarnessError(
                f"seed {record.seed} t={record.batch_index}: estimates {sorted(record.estimates)}"
                f" differ from the run's {sorted(self.estimators)}"
            )
        report = record.aetta_report
        if record.seed != self.seed or (report is not None) != self._reports:
            raise HarnessError(
                f"seed {record.seed} t={record.batch_index} does not fit seed {self.seed}'s records,"
                f" kept {'with' if self._reports else 'without'} AETTA reports"
            )
        self._numbers.extend((
            record.batch_index, record.severity, record.true_accuracy,
            *(record.estimates[name] for name in self.estimators),
            *(getattr(report, name) for name in _REPORT_FIELDS if report is not None),
        ))
        self._corruption.append(record.corruption_id)
        self._trigger.append(record.trigger)

    def __len__(self) -> int:
        return len(self._corruption)

    def __getitem__(self, index: int | slice) -> RunRecord | list[RunRecord]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        batch_index, severity, true_accuracy, *values = self._numbers[i * self._width:(i + 1) * self._width]
        return RunRecord(
            seed=self.seed,
            batch_index=int(batch_index),
            corruption_id=self._corruption[i],
            severity=int(severity),
            true_accuracy=true_accuracy,
            estimates=dict(zip(self.estimators, values)),
            trigger=self._trigger[i],
            aetta_report=EstimateReport(*values[len(self.estimators):]) if self._reports else None,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeedRecords):
            return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


@dataclass
class SeedOutcome:
    """One seed's run: its records, or the error that stopped it (then ``records`` is empty)."""

    seed: int
    records: Sequence[RunRecord]
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
    def records_by_seed(self) -> list[Sequence[RunRecord]]:
        return [o.records for o in self.outcomes if o.error is None]


def mae(records: Sequence[RunRecord], estimator: str) -> float:
    """Mean absolute error of one estimator against true accuracy, in [0, 1]."""
    if not records:
        raise HarnessError("no records to score")
    if estimator not in records[0].estimates:
        raise HarnessError(f"estimator {estimator!r} was not enabled")
    return float(np.mean([r.abs_error(estimator) for r in records]))


def seed_mean_mae(records_by_seed: Sequence[Sequence[RunRecord]], estimator: str) -> float:
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
        tent_step(model, x, optimizer)
    elif method == "bn_stats":
        bn_stats_step(model, x)


def _segments(config: ExperimentConfig, seed: int, pool_rows: int) -> list[tuple[CorruptionSpec, int]]:
    """The stream's ``(corruption, n_batches)`` segments; a fully stream is one segment."""
    if config.scenario == "fully":
        n = config.n_batches if config.n_batches is not None else pool_rows // config.batch_size
        return [(config.fully_corruption, n)]
    severities = (5,) if config.scenario == "collapse" else (5, 4, 3)
    return [(c, config.batches_per_segment) for c in continual_schedule(seed, severities)]


@dataclass(slots=True)
class AdaptedState:
    """One adapted model and what its estimators and recovery carry between
    batches: ``history``, AETTA's smoothed accuracies over the two windows that
    the window-degradation trigger compares, AETTA's ``ema_error``, GDE's
    ``prev_model`` (the model before the last step) and MRS's ``entropy_ema``.
    Each of the last three stays None while nothing enabled reads it."""

    model: nn.MlpModel
    optimizer: nn.OptimizerState
    history: deque[float]
    prev_model: nn.MlpModel | None = None
    ema_error: float | None = None
    entropy_ema: float | None = None


def adapted_state(config: ExperimentConfig, source: nn.MlpModel) -> AdaptedState:
    """A fresh state that adapts a copy of ``source`` as ``config`` says."""
    model = nn.adaptable_copy(source)
    return AdaptedState(
        model=model,
        optimizer=make_optimizer(config.adaptation),
        history=deque(maxlen=2 * config.recovery.window),
        # a GDE snapshot copies only the BN arrays, all that the step writes
        prev_model=nn.adaptable_copy(model) if "gde" in config.estimators_enabled else None,
    )


def observe(
    config: ExperimentConfig, task: PreparedTask, state: AdaptedState, batch: StreamBatch, seed: int
) -> RunRecord:
    """Score ``state``'s model on one batch against its hidden labels, and
    decide from the estimates whether to roll it back before this batch's step.
    The model is not written; AETTA's EMA and window and MRS's EMA are. Returns
    the batch's record, whose trigger is that decision."""
    x, model, enabled = batch.features, state.model, config.estimators_enabled
    # one deterministic forward of the current model serves every consumer
    hidden = nn.last_hidden(model, x)
    logits = hidden @ model.head.weights + model.head.bias
    probs = nn.softmax(logits)
    labels = predicted_labels(probs)
    # an infinite bias can vanish behind a relu or the softmax, and an infinite
    # running variance turns its unit into beta, so every model array is
    # checked as well as the predictions
    state_finite = all(np.isfinite(a).all() for _, a in nn.named_state(model))
    non_finite = not (state_finite and np.isfinite(probs).all())
    # one row is constant by definition, so a one-row batch cannot show it
    constant_output = x.shape[0] > 1 and bool((logits == logits[0]).all())
    true_accuracy = float(np.mean(labels == batch.hidden_labels))
    if config.recovery.kind == "mrs":
        entropy, ema = nn.entropy_loss(probs), state.entropy_ema
        state.entropy_ema = entropy if ema is None else MRS_EMA * ema + (1.0 - MRS_EMA) * entropy
    estimates: dict[str, float] = {}
    report: EstimateReport | None = None
    if "softmax" in enabled:
        estimates["softmax"] = softmax_score(logits)
    if "aetta" in enabled:
        report = aetta_estimate(model, hidden, labels, config.estimator, state.ema_error, (seed, batch.batch_index))
        state.ema_error = report.smoothed_error
        state.history.append(report.smoothed_accuracy)
        estimates["aetta"] = report.smoothed_accuracy
    # dropped before the other estimators allocate, to keep the batch's peak memory down
    del hidden, logits, probs

    if "srcvalid" in enabled:
        estimates["srcvalid"] = src_valid(model, task.holdout.features[:SRCVALID_ROWS],
                                          task.holdout.labels[:SRCVALID_ROWS])
    if "gde" in enabled:
        estimates["gde"] = gde_agreement(labels, state.prev_model, x)
    if "advperturb" in enabled:
        estimates["advperturb"] = adv_perturb_agreement(
            task.checkpoint, model, x, feature_scale=task.train.feature_range)

    trigger = should_reset(config.recovery, state.history, entropy_ema=state.entropy_ema,
                           at_boundary=batch.at_boundary, non_finite=non_finite, constant_output=constant_output)
    return RunRecord(seed=seed, batch_index=batch.batch_index, corruption_id=batch.corruption_id,
                     severity=batch.severity, true_accuracy=true_accuracy, estimates=estimates,
                     trigger=trigger or "", aetta_report=report)


def advance(
    config: ExperimentConfig, source: nn.MlpModel, state: AdaptedState, x: np.ndarray, record: RunRecord
) -> RunRecord:
    """Adapt ``state``'s model on the batch ``x`` that ``record`` scored: replace
    the model and optimizer with fresh ones from ``source`` first if the record's
    trigger says so, then take the step and the recovery kinds that act after it.
    Returns the record with the batch's final trigger."""
    if record.trigger:
        state.model, state.optimizer = apply_reset(state.optimizer, source)
        state.entropy_ema = None
    if state.prev_model is not None:
        state.prev_model = nn.adaptable_copy(state.model)
    _adaptation_step(config, state.model, x, state.optimizer)
    if config.recovery.kind == "stochastic_restore":
        stochastic_restore_step(state.model, source, restore_prob=RESTORE_PROB,
                                seed=record.seed * 1_000_003 + record.batch_index)
    if config.recovery.kind == "episodic":
        state.model, state.optimizer = apply_reset(state.optimizer, source)
        return replace(record, trigger=TRIGGER_EXTERNAL)
    return record


def _run_seed(config: ExperimentConfig, seed: int) -> SeedRecords:
    task = prepared_task(config.dataset, architecture=config.architecture, epochs=config.train_epochs, train_seed=seed)
    state = adapted_state(config, task.checkpoint)
    stream = make_stream(
        _segments(config, seed, len(task.holdout)), task.holdout, batch_size=config.batch_size, seed=seed
    )
    records = SeedRecords(seed, config.estimators_enabled, reports="aetta" in config.estimators_enabled)
    for batch in stream:
        records.append(advance(config, task.checkpoint, state, batch.features,
                               observe(config, task, state, batch, seed)))
        # dropped here, so that the stream does not corrupt the next batch while this one is alive
        del batch
    if not records:
        raise HarnessError("scenario produced no batches")
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed independently; a failed seed is recorded, not fatal."""
    outcomes: list[SeedOutcome] = []
    with nn.small_ufunc_buffer():
        for seed in config.seeds:
            try:
                outcomes.append(SeedOutcome(seed=seed, records=_run_seed(config, seed)))
            except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
                log.exception("seed %d failed: %s", seed, exc)
                outcomes.append(SeedOutcome(seed=seed, records=[], error=str(exc)))
    if all(o.error is not None for o in outcomes):
        raise HarnessError(f"all seeds failed; first error: {outcomes[0].error}")
    return ExperimentResult(config=config, outcomes=outcomes)


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-estimator MAE mean/std over seeds, overall and per corruption."""
    # each record built once from its seed's columns, not once per scope and estimator
    by_seed = [list(records) for records in result.records_by_seed]
    if not by_seed:
        raise HarnessError("no successful seeds to summarize")
    enabled = result.config.estimators_enabled
    scopes: list[tuple[str, list[list[RunRecord]]]] = [("overall", by_seed)]
    for cid in sorted({r.corruption_id for records in by_seed for r in records}):
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
        "seed": str(record.seed),
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


def load_run_csv(path: str | Path) -> list[SeedRecords]:
    """Inverse of write_run_csv: one store per seed, in file order, each record
    keeping the seed its row names and no ``aetta_report``. A rollback is
    recorded by its trigger: a ``reset`` that disagrees is rejected. One run
    enables one set of estimators, so a row whose filled ``est_`` columns differ
    from the first row's is rejected too, and so is a severity outside 0..``MAX_SEVERITY``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise HarnessError(f"unexpected CSV header {reader.fieldnames}")
        by_seed: dict[int, SeedRecords] = {}
        for row in reader:
            if row["reset"] != ("1" if row["trigger"] else "0"):
                raise HarnessError(
                    f"seed {row['seed']} t={row['t']}: reset {row['reset']!r}"
                    f" disagrees with trigger {row['trigger']!r}"
                )
            seed, severity = int(row["seed"]), int(row["severity"])
            if not 0 <= severity <= MAX_SEVERITY:
                raise HarnessError(f"seed {seed} t={row['t']}: severity {severity} is outside 0..{MAX_SEVERITY}")
            estimates = {name: float(row[f"est_{name}"]) for name in ESTIMATOR_NAMES if row[f"est_{name}"]}
            if seed not in by_seed:
                first = next(iter(by_seed.values()), None)
                by_seed[seed] = SeedRecords(seed, estimates if first is None else first.estimators, reports=False)
            by_seed[seed].append(
                RunRecord(
                    seed=seed,
                    batch_index=int(row["t"]),
                    # interned, so that rows share their strings as a run's records do
                    corruption_id=sys.intern(row["corruption"]),
                    severity=severity,
                    true_accuracy=float(row["true_acc"]),
                    estimates=estimates,
                    trigger=sys.intern(row["trigger"]),
                )
            )
    return list(by_seed.values())


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
    # each seed's records built once from its columns, for every output below
    outcomes = [dataclasses.replace(o, records=list(o.records)) for o in result.outcomes]
    result = dataclasses.replace(result, outcomes=outcomes)

    run_path = out / "run.csv"
    write_run_csv(result, run_path)
    written.append(run_path)

    summary_path = out / "summary.csv"
    write_summary_csv(summarize(result), summary_path)
    written.append(summary_path)

    trace = list(result.records_by_seed[0])
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


def _json_fits(hint: object, value: object) -> bool:
    """Whether a JSON value fits a field annotated ``hint``: a bool is no number,
    an int is no fraction, a tuple is a list of its element type, and null fits
    only a union with None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_fits(args[0], v) for v in value)
    if args:
        return any(_json_fits(t, value) for t in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _from_dict(cls: type, data: object, name: str):
    """``cls`` from a partial dict; its nested objects and tuples are read from its own field types."""
    if not isinstance(data, dict):
        raise HarnessError(f"config key {name!r} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise HarnessError(f"unknown {name} keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        hint = hints[key]
        args = typing.get_args(hint)
        # a nested object's type is a dataclass, alone or in a union with None; only the union takes null
        nested = next((t for t in (hint, *args) if dataclasses.is_dataclass(t)), None)
        if nested is not None and not (value is None and type(None) in args):
            value = _from_dict(nested, value, key)
        elif not _json_fits(hint, value):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise HarnessError(f"{name} key {key!r} must be {expected}, not {value!r}")
        elif typing.get_origin(hint) is tuple:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Partial dicts are fine; unknown keys are rejected to catch typos."""
    return _from_dict(ExperimentConfig, data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))
