import copy
import csv
import dataclasses
import io
import itertools
import logging
import math
import os
import subprocess
import sys
import tempfile
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aetta import harness, nn, plots, streams
from aetta.estimators import AettaConfig, EstimateReport, softmax_score, src_valid
from aetta.nn import build_mlp, forward_logits, named_parameters, named_state
from aetta.streams import CorruptionSpec, DatasetSpec, prepared_task
from aetta.tta import AdaptConfig, RecoveryPolicy

TINY = DatasetSpec(class_count=3, input_dim=4, samples_per_class=120, seed=0)


def tiny_config(**overrides):
    defaults = dict(
        dataset=TINY,
        architecture=(8,),
        train_epochs=3,
        scenario="fully",
        fully_corruption=CorruptionSpec(kind="gaussian_noise", severity=2, seed=5),
        n_batches=4,
        batch_size=16,
        seeds=(0,),
        estimator=AettaConfig(n_dropout=4),
    )
    defaults.update(overrides)
    return harness.ExperimentConfig(**defaults)


def test_run_produces_one_record_per_batch():
    result = harness.run_experiment(tiny_config())
    assert not result.failed
    records = result.records_by_seed[0]
    assert [r.batch_index for r in records] == [0, 1, 2, 3]
    for r in records:
        assert r.corruption_id == "gaussian_noise"
        assert r.severity == 2
        assert 0.0 <= r.true_accuracy <= 1.0
        assert set(r.estimates) == set(harness.ESTIMATOR_NAMES)


def test_first_batch_estimates_come_from_unadapted_source():
    config = tiny_config()
    result = harness.run_experiment(config)
    first = result.records_by_seed[0][0]

    task = prepared_task(TINY, architecture=(8,), epochs=3, train_seed=0)
    from aetta.streams import make_stream

    stream = tuple(make_stream([(config.fully_corruption, 4)], task.holdout, batch_size=16, seed=0))
    logits = forward_logits(task.checkpoint, stream[0].features)
    assert first.estimates["softmax"] == softmax_score(logits)
    rows = harness.SRCVALID_ROWS
    assert first.estimates["srcvalid"] == src_valid(
        task.checkpoint, task.holdout.features[:rows], task.holdout.labels[:rows]
    )
    assert first.estimates["gde"] == 1.0


def test_states_driven_by_hand_through_the_stages_give_the_runs_records():
    """Two adapted states of seed 0, one healthy and one collapsing with AETTA
    rollbacks, each observed and advanced on every batch of one shared stream,
    give exactly the records ``run_experiment`` gives. A probe that compares
    models batch by batch drives the stages this way."""
    default = harness.ExperimentConfig(seeds=(0,))
    collapsing = dataclasses.replace(
        default,
        adaptation=AdaptConfig(method="tent", learning_rate=harness.COLLAPSE_LEARNING_RATE),
        recovery=RecoveryPolicy(kind="aetta_reset"),
    )
    configs = (default, collapsing)
    task = prepared_task(default.dataset, default.architecture, default.train_epochs, train_seed=0)
    states = [harness.adapted_state(config, task.checkpoint) for config in configs]
    driven = ([], [])
    segments = harness._segments(default, 0, len(task.holdout))
    for batch in streams.make_stream(segments, task.holdout, batch_size=default.batch_size, seed=0):
        for config, state, records in zip(configs, states, driven):
            record = harness.observe(config, task, state, batch, 0)
            records.append(harness.advance(config, task.checkpoint, state, batch.features, record))
    assert any(r.reset for r in driven[1]) and not any(r.reset for r in driven[0])
    for config, records in zip(configs, driven):
        assert harness.run_experiment(config).records_by_seed[0] == records


def test_observe_writes_no_array_of_the_model():
    """Scoring a batch with every estimator leaves each of the model's arrays
    bitwise as it was, on the source's first batch and after adaptation steps,
    so several states can be observed before any of them steps."""
    config = tiny_config(recovery=RecoveryPolicy(kind="mrs"))
    assert config.estimators_enabled == harness.ESTIMATOR_NAMES
    task = prepared_task(TINY, architecture=(8,), epochs=3, train_seed=0)
    state = harness.adapted_state(config, task.checkpoint)
    stream = streams.make_stream(harness._segments(config, 0, len(task.holdout)), task.holdout, batch_size=16, seed=0)
    for batch in stream:
        before = [(name, arr.tobytes()) for name, arr in named_state(state.model)]
        record = harness.observe(config, task, state, batch, 0)
        assert [(name, arr.tobytes()) for name, arr in named_state(state.model)] == before
        harness.advance(config, task.checkpoint, state, batch.features, record)


def writable_state(model, name):
    """Replace ``model``'s array ``name`` with a writable copy and return the copy.
    The harness's model shares the checkpoint's read-only dense and head arrays,
    so a fault is injected into a copy that replaces the array, never in place."""
    *path, attr = name.split(".")
    owner = model
    for part in path:
        owner = owner[int(part)] if part.isdigit() else getattr(owner, part)
    arr = getattr(owner, attr).copy()
    setattr(owner, attr, arr)
    return arr


def test_estimates_precede_adaptation(monkeypatch):
    seen = []

    def probe(config, model, x, optimizer):
        seen.append(model.head.bias.copy())
        writable_state(model, "head.bias")[0] += 50.0

    monkeypatch.setattr(harness, "_adaptation_step", probe)
    result = harness.run_experiment(tiny_config(adaptation=dataclasses.replace(
        tiny_config().adaptation, method="tent")))
    assert not result.failed
    # batch t's adaptation sees exactly t prior bumps, so every estimate at
    # batch t was computed before bump t happened
    for t, bias in enumerate(seen):
        assert bias[0] == pytest.approx(seen[0][0] + 50.0 * t)


def test_adapted_and_gde_models_share_the_checkpoints_frozen_arrays(monkeypatch):
    """Every dense and head array of the model the harness adapts, and of GDE's
    snapshot of it, is the checkpoint's own read-only array; every BN array is
    writable and neither the checkpoint's nor in its memory."""
    frozen = dict(named_state(prepared_task(TINY, architecture=(8,), epochs=3, train_seed=0).checkpoint))
    checked = []

    def check(model):
        for name, arr in named_state(model):
            if ".norm." in name:
                assert arr.flags.writeable and not np.shares_memory(arr, frozen[name]), name
            else:
                assert arr is frozen[name] and not arr.flags.writeable, name
        checked.append(model)

    real_step, real_gde = harness._adaptation_step, harness.gde_agreement

    def probe(config, model, x, optimizer):
        check(model)
        real_step(config, model, x, optimizer)

    def gde(labels, prev_model, x):
        check(prev_model)
        return real_gde(labels, prev_model, x)

    monkeypatch.setattr(harness, "_adaptation_step", probe)
    monkeypatch.setattr(harness, "gde_agreement", gde)
    assert not harness.run_experiment(tiny_config()).failed
    # four batches, each scoring GDE's snapshot and then stepping the one adapted model
    assert len(checked) == 8 and len({id(m) for m in checked[1::2]}) == 1


def test_a_step_that_writes_a_frozen_array_fails_its_seed_and_spares_the_checkpoint(monkeypatch):
    checkpoint = prepared_task(TINY, architecture=(8,), epochs=3, train_seed=0).checkpoint
    before = [(name, arr.tobytes()) for name, arr in named_state(checkpoint)]
    steps = itertools.count()
    real = harness._adaptation_step

    def writes_a_weight(config, model, x, optimizer):
        if next(steps) == 0:  # seed 0's first step
            model.blocks[0].dense.weights[0, 0] += 1.0
        real(config, model, x, optimizer)

    monkeypatch.setattr(harness, "_adaptation_step", writes_a_weight)
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    assert "read-only" in result.outcomes[0].error and result.outcomes[1].error is None
    assert [(name, arr.tobytes()) for name, arr in named_state(checkpoint)] == before


def test_hidden_labels_only_affect_true_accuracy(monkeypatch):
    config = tiny_config()
    baseline = harness.run_experiment(config).records_by_seed[0]

    original = harness.make_stream

    def relabeled(*args, **kwargs):
        rng = np.random.default_rng(99)
        return tuple(
            dataclasses.replace(
                b, hidden_labels=rng.integers(0, 3, size=b.hidden_labels.shape)
            )
            for b in original(*args, **kwargs)
        )

    monkeypatch.setattr(harness, "make_stream", relabeled)
    shuffled = harness.run_experiment(config).records_by_seed[0]

    for a, b in zip(baseline, shuffled):
        assert a.estimates == b.estimates
        assert a.reset == b.reset
    assert any(a.true_accuracy != b.true_accuracy for a, b in zip(baseline, shuffled))


def test_a_failed_seed_logs_its_traceback_and_spares_the_others(monkeypatch, caplog):
    config = tiny_config(
        scenario="continual", fully_corruption=None, n_batches=None, batches_per_segment=1, seeds=(0, 1, 2)
    )
    clean = harness.run_experiment(config)
    real = streams.corrupter
    corrupted = []

    def corrupter(spec, dim, scale):
        apply = real(spec, dim, scale)

        def failing(rows):
            corrupted.append(spec.seed)
            if spec.seed == 103:  # seed 1's fourth segment, its batch pulled mid-seed
                raise streams.StreamError("injected")
            return apply(rows)

        return failing

    monkeypatch.setattr(streams, "corrupter", corrupter)
    with caplog.at_level(logging.ERROR, logger="aetta.harness"):
        result = harness.run_experiment(config)
    assert [o.error for o in result.outcomes] == [None, "injected", None]
    assert [seed for seed in corrupted if seed // 100 == 1] == [100, 101, 102, 103]
    assert result.outcomes[0].records == clean.outcomes[0].records
    assert result.outcomes[2].records == clean.outcomes[2].records
    [record] = [r for r in caplog.records if r.name == "aetta.harness"]
    assert record.exc_info is not None and record.exc_info[0] is streams.StreamError


def test_each_batch_is_freed_before_the_next_is_corrupted(monkeypatch):
    """The loop lets go of each batch before it pulls the next one, so the stream
    never holds two corrupted batches at once, within a segment or across one."""
    real = streams.corrupter
    batches, alive = [], []

    def corrupter(spec, dim, scale):
        apply = real(spec, dim, scale)

        def tracked(rows):
            alive.append(sum(ref() is not None for ref in batches))
            out = apply(rows)
            batches.append(weakref.ref(out))
            return out

        return tracked

    monkeypatch.setattr(streams, "corrupter", corrupter)
    config = tiny_config(scenario="continual", fully_corruption=None, n_batches=None, batches_per_segment=2)
    result = harness.run_experiment(config)
    assert not result.failed
    assert alive == [0] * 30


NO_SCIPY_RUN = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(name + " is unavailable")
        return None


sys.meta_path.insert(0, NoScipy())
import importlib
import pkgutil

import aetta

modules = [info.name for info in pkgutil.iter_modules(aetta.__path__)]
assert {"cli", "harness", "nn"} <= set(modules), modules
for name in modules:
    importlib.import_module("aetta." + name)
from aetta import estimators, harness, streams

config = harness.ExperimentConfig(
    dataset=streams.DatasetSpec(class_count=3, input_dim=4, samples_per_class=120, seed=0),
    architecture=(8,),
    train_epochs=1,
    scenario="continual",
    batches_per_segment=1,
    batch_size=16,
    seeds=(0,),
    estimator=estimators.AettaConfig(n_dropout=2),
)
result = harness.run_experiment(config)
assert not result.failed
assert "rotation" in {r.corruption_id for r in result.records_by_seed[0]}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_runs_with_scipy_unimportable():
    """Every module imports, and a continual run with rotation segments
    finishes, in a fresh interpreter where importing scipy raises."""
    src = Path(harness.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_mae_recount_and_validation():
    records = harness.run_experiment(tiny_config()).records_by_seed[0]
    manual = sum(abs(r.true_accuracy - r.estimates["aetta"]) for r in records) / len(records)
    assert harness.mae(records, "aetta") == pytest.approx(manual, abs=1e-15)
    with pytest.raises(harness.HarnessError):
        harness.mae([], "aetta")
    with pytest.raises(harness.HarnessError):
        harness.mae(records, "nonsense")


def test_seed_mean_mae_weights_seeds_equally():
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    per_seed = [harness.mae(r, "softmax") for r in result.records_by_seed]
    assert harness.seed_mean_mae(result.records_by_seed, "softmax") == pytest.approx(
        np.mean(per_seed)
    )


def test_summary_has_overall_and_per_corruption_scopes():
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    rows = harness.summarize(result)
    scopes = {r.scope for r in rows}
    assert scopes == {"overall", "gaussian_noise"}
    overall = [r for r in rows if r.scope == "overall"]
    assert [r.estimator for r in overall] == list(harness.ESTIMATOR_NAMES)
    for row in overall:
        assert row.mae_std >= 0.0


def test_disabled_estimators_are_absent_from_records_and_csv(tmp_path):
    config = tiny_config(estimators_enabled=("softmax", "aetta"))
    result = harness.run_experiment(config)
    record = result.records_by_seed[0][0]
    assert set(record.estimates) == {"softmax", "aetta"}

    path = tmp_path / "run.csv"
    harness.write_run_csv(result, path)
    header, first = path.read_text().splitlines()[:2]
    assert header == ",".join(harness.CSV_COLUMNS)
    cells = dict(zip(harness.CSV_COLUMNS, first.split(",")))
    assert cells["est_srcvalid"] == "" and cells["est_gde"] == "" and cells["est_advperturb"] == ""
    assert cells["est_softmax"] != "" and cells["est_aetta"] != ""


def test_run_csv_round_trips(tmp_path):
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    path = tmp_path / "run.csv"
    harness.write_run_csv(result, path)
    loaded = harness.load_run_csv(path)
    assert len(loaded) == 2
    for original, parsed in zip(result.records_by_seed, loaded):
        assert isinstance(parsed, harness.SeedRecords)
        assert parsed == [dataclasses.replace(r, aetta_report=None) for r in original]
        # rows share one string object per corruption and trigger, as the run's records do
        strings = [s for r in parsed for s in (r.corruption_id, r.trigger)]
        assert len({id(s) for s in strings}) == len(set(strings))
        assert len(original) == len(parsed)
        for a, b in zip(original, parsed):
            assert b.batch_index == a.batch_index
            assert b.corruption_id == a.corruption_id
            assert b.severity == a.severity
            assert b.true_accuracy == a.true_accuracy
            assert b.estimates == a.estimates
            assert b.reset == a.reset
            assert b.trigger == a.trigger


def test_seeds_keep_their_numbers_through_run_csv(tmp_path, monkeypatch):
    """Seeds (3, 7), and 3, 5, 7 with 5 failing, read back under their own numbers."""
    real = harness._run_seed

    def fails_on_five(config, seed):
        if seed == 5:
            raise RuntimeError("seed 5 fails")
        return real(config, seed)

    monkeypatch.setattr(harness, "_run_seed", fails_on_five)
    for seeds in ((3, 7), (3, 5, 7)):
        result = harness.run_experiment(tiny_config(seeds=seeds))
        harness.write_run_csv(result, tmp_path / "run.csv")
        loaded = harness.load_run_csv(tmp_path / "run.csv")
        assert [[(r.seed, r.batch_index) for r in records] for records in loaded] == [
            [(seed, t) for t in range(4)] for seed in (3, 7)
        ]


def test_records_hold_no_instance_dict():
    """Records, their reports and the store that keeps a seed's records are slotted."""
    report = EstimateReport(pdd=0.1, e_avg=1.0, b_weight=1.0, raw_error=0.1, smoothed_error=0.1)
    record = harness.RunRecord(0, 0, "gaussian_noise", 2, 0.9, {"aetta": 0.9}, "", report)
    assert not hasattr(record, "__dict__")
    assert not hasattr(report, "__dict__")
    assert not hasattr(harness.SeedRecords(0, ("aetta",), reports=True), "__dict__")


def stored(records, seed=0):
    """``records`` appended in order to a new store of their estimators."""
    store = harness.SeedRecords(seed, records[0].estimates, reports=records[0].aetta_report is not None)
    for record in records:
        store.append(record)
    return store


def test_equal_runs_compare_equal_as_stores_and_as_record_lists():
    first, second = (harness.run_experiment(tiny_config()).records_by_seed[0] for _ in range(2))
    assert isinstance(first, harness.SeedRecords) and first is not second
    assert first == second and not first != second
    assert first == list(second) and list(first) == second and first == tuple(second)
    assert stored(list(first)) == first
    assert first != stored([dataclasses.replace(r, seed=1) for r in first], seed=1)
    assert first != list(second)[:-1] and first != "not records"
    assert harness.SeedOutcome(seed=0, records=[]).records == []


def _bumped(value):
    return math.nextafter(value, math.inf)


FIELD_CHANGES = {
    "batch_index": lambda r: dataclasses.replace(r, batch_index=r.batch_index + 1),
    "corruption_id": lambda r: dataclasses.replace(r, corruption_id="rotation"),
    "severity": lambda r: dataclasses.replace(r, severity=r.severity + 1),
    "true_accuracy": lambda r: dataclasses.replace(r, true_accuracy=_bumped(r.true_accuracy)),
    "trigger": lambda r: dataclasses.replace(r, trigger="external"),
    **{
        f"estimates.{name}": lambda r, name=name: dataclasses.replace(
            r, estimates={**r.estimates, name: _bumped(r.estimates[name])})
        for name in harness.ESTIMATOR_NAMES
    },
    **{
        f"aetta_report.{field.name}": lambda r, name=field.name: dataclasses.replace(
            r, aetta_report=dataclasses.replace(r.aetta_report, **{name: _bumped(getattr(r.aetta_report, name))}))
        for field in dataclasses.fields(EstimateReport)
    },
}


@pytest.mark.parametrize("field", FIELD_CHANGES)
def test_one_changed_field_of_one_batch_makes_the_records_unequal(field):
    """Each field of the store's one batch, moved by one unit in the last place
    where it is a float, makes it unequal to the run's records, compared as stores
    and as lists."""
    records = list(harness.run_experiment(tiny_config()).records_by_seed[0])
    changed = records[:2] + [FIELD_CHANGES[field](records[2])] + records[3:]
    assert changed[2] != records[2]
    assert stored(records) != stored(changed) and stored(changed) != stored(records)
    assert stored(records) != changed and records != stored(changed)


def test_a_store_indexes_and_slices_as_a_list_of_its_records():
    store = harness.run_experiment(tiny_config(n_batches=5, batch_size=12)).records_by_seed[0]
    records = list(store)
    assert len(store) == len(records) == 5 and [r.batch_index for r in records] == list(range(5))
    for i in range(-5, 5):
        assert store[i] == records[i]
    for index in (slice(1, 3), slice(-2, None), slice(None, None, -2), slice(4, 1), slice(2, 99)):
        assert store[index] == records[index]
    for index in (5, -6):
        with pytest.raises(IndexError):
            store[index]
    assert store.count(records[3]) == 1 and store.index(records[3]) == 3


def test_a_run_keeps_aettas_report_only_when_aetta_is_enabled():
    [without] = harness.run_experiment(tiny_config(estimators_enabled=("softmax", "gde"))).records_by_seed
    assert without.estimators == ("softmax", "gde")
    assert all(r.aetta_report is None and set(r.estimates) == {"softmax", "gde"} for r in without)
    [with_aetta] = harness.run_experiment(tiny_config(estimators_enabled=("aetta",))).records_by_seed
    assert all(r.aetta_report.smoothed_accuracy == r.estimates["aetta"] for r in with_aetta)


def test_a_store_rejects_a_record_that_does_not_fit_it():
    record = harness.run_experiment(tiny_config()).records_by_seed[0][0]
    for store, misfit in (
        (harness.SeedRecords(0, ("softmax",), reports=True), record),
        (harness.SeedRecords(1, harness.ESTIMATOR_NAMES, reports=True), record),
        (harness.SeedRecords(0, harness.ESTIMATOR_NAMES, reports=False), record),
        (harness.SeedRecords(0, harness.ESTIMATOR_NAMES, reports=True), dataclasses.replace(record, aetta_report=None)),
    ):
        with pytest.raises(harness.HarnessError):
            store.append(misfit)
        assert len(store) == 0


def deep_size(obj, seen=None):
    """Bytes ``obj`` holds: ``sys.getsizeof`` summed over it and what its slots,
    dicts, lists and tuples reach, each object once (an array's size includes
    its buffer). Strings are left out, since a run's corruption and trigger
    strings are shared constants."""
    seen = set() if seen is None else seen
    if isinstance(obj, str) or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        children = [getattr(obj, name) for name in slots if hasattr(obj, name)]
    return sys.getsizeof(obj) + sum(deep_size(child, seen) for child in children)


def test_a_finished_seed_holds_at_most_200_bytes_per_batch():
    """A run keeps one seed's records for the whole stream, so a finished batch
    is a few numbers and two shared strings; one slotted record per batch, with
    its estimates dict, report and boxed floats, held 653 bytes."""
    [records] = harness.run_experiment(harness.ExperimentConfig(seeds=(0,))).records_by_seed
    assert len(records) == 60
    assert deep_size(records) / len(records) <= 200


def test_an_empty_store_holds_under_512_bytes():
    """A seed's store is one array of doubles and two string lists, so it holds
    little before its first batch; one typed array per field held 1,524 bytes."""
    assert deep_size(harness.SeedRecords(0, harness.ESTIMATOR_NAMES, reports=True)) < 512


def test_records_read_back_int_batch_indices_and_severities(tmp_path):
    """The store keeps every number as a double, yet a record's batch index and
    severity read back as ``int``, from a run and from ``run.csv``, so the file
    prints ``3`` and not ``3.0``."""
    result = harness.run_experiment(tiny_config())
    harness.write_run_csv(result, tmp_path / "run.csv")
    for records in (result.records_by_seed[0], harness.load_run_csv(tmp_path / "run.csv")[0]):
        assert all(type(r.batch_index) is int and type(r.severity) is int for r in records)
    with open(tmp_path / "run.csv", newline="") as fh:
        assert all(row["t"].isdigit() and row["severity"].isdigit() for row in csv.DictReader(fh))


def test_every_batch_draws_its_own_dropout_masks(monkeypatch):
    """AETTA seeds each batch's ensemble from its place in the stream, so no two
    batches of a run, across seeds too, draw from the same generator seed."""
    seeds = []
    real = nn.dropout_forwards

    def spy(model, x, n, seed):
        seeds.append(seed)
        return real(model, x, n, seed)

    monkeypatch.setattr(nn, "dropout_forwards", spy)
    harness.run_experiment(tiny_config(seeds=(0, 1)))
    assert len(seeds) == 8
    assert len(set(seeds)) == len(seeds)


def test_a_source_model_that_predicts_one_class_is_rolled_back_on_the_first_batch(monkeypatch):
    """A checkpoint with a dominant head bias predicts class 0 on every row, so no
    dropout member flips; AETTA still reads it as inaccurate, and the
    hard-threshold trigger fires on the stream's first batch."""
    real = harness.prepared_task

    def one_class(*args, **kwargs):
        task = real(*args, **kwargs)
        checkpoint = copy.deepcopy(task.checkpoint)
        checkpoint.head.bias[0] += 50.0
        return dataclasses.replace(task, checkpoint=checkpoint)

    monkeypatch.setattr(harness, "prepared_task", one_class)
    config = tiny_config(recovery=RecoveryPolicy(kind="aetta_reset", hard_threshold=0.5))
    first = harness.run_experiment(config).records_by_seed[0][0]
    assert first.aetta_report.pdd == 0.0
    assert first.trigger == "hard_threshold"


def test_only_advperturb_reads_the_training_split(monkeypatch):
    """AdvPerturb's per-feature range is the one read of the training split, so
    a run without AdvPerturb never touches it and one with it does."""
    real = harness.prepared_task
    monkeypatch.setattr(harness, "prepared_task", lambda *a, **k: dataclasses.replace(real(*a, **k), train=None))
    without = tiny_config(estimators_enabled=tuple(n for n in harness.ESTIMATOR_NAMES if n != "advperturb"))
    assert not harness.run_experiment(without).failed
    with pytest.raises(harness.HarnessError, match="all seeds failed"):
        harness.run_experiment(tiny_config())


# tiny_config over 9 batches of 8 rows: one config per recovery kind under
# TENT, each set so that it fires, and one per other adaptation method with no
# recovery. Each config's expected run.csv is tests/pins/<kind>.csv, compared
# byte for byte. The recovery pins were recorded when run.csv gained its seed
# column and AETTA's masks became per-batch draws of 16-bit raw words, the
# method pins before the model with no hidden block was removed. A change to
# output bytes writes the files again, so its diff shows every value that
# moved, and says why in CHANGES.md.
PINS = Path(__file__).parent / "pins"
PINNED_RUN_CSV = {
    "none": dict(recovery=RecoveryPolicy()),
    "aetta_reset": dict(recovery=RecoveryPolicy(kind="aetta_reset", window=2, hard_threshold=0.65)),
    "episodic": dict(recovery=RecoveryPolicy(kind="episodic")),
    "mrs": dict(recovery=RecoveryPolicy(kind="mrs", mrs_threshold=1.0)),
    "stochastic_restore": dict(recovery=RecoveryPolicy(kind="stochastic_restore", restore_prob=0.5)),
    "dist_shift": dict(recovery=RecoveryPolicy(kind="dist_shift")),
    "method_none": dict(adaptation=AdaptConfig(method="none")),
    "method_bn_stats": dict(adaptation=AdaptConfig(method="bn_stats")),
}


def csv_changes(expected: str, actual: str) -> str:
    """What moved between two CSV texts: the first line that differs, and per
    column the largest absolute change, or for a non-numeric column the count
    of rows that differ."""
    old, new = list(csv.reader(io.StringIO(expected))), list(csv.reader(io.StringIO(actual)))
    if old[:1] != new[:1]:
        return f"header {old[:1]} is now {new[:1]}"
    lines = [] if len(old) == len(new) else [f"{len(old) - 1} rows are now {len(new) - 1}"]
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
    if first is not None:
        lines += [f"first differing line {first + 1}:", f"  expected {old[first]}", f"  actual   {new[first]}"]
    for j, name in enumerate(old[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], new[1:]) if a[j] != b[j]]
        if pairs:
            try:
                lines.append(f"{name}: largest change {max(abs(float(b) - float(a)) for a, b in pairs)!r}")
            except ValueError:
                lines.append(f"{name}: {len(pairs)} rows differ")
    return "\n".join(lines)


@pytest.mark.parametrize("kind", sorted(PINNED_RUN_CSV))
def test_run_csv_bytes_are_pinned(tmp_path, kind):
    result = harness.run_experiment(tiny_config(**PINNED_RUN_CSV[kind], n_batches=9, batch_size=8))
    harness.write_run_csv(result, tmp_path / "run.csv")
    expected, actual = (PINS / f"{kind}.csv").read_bytes(), (tmp_path / "run.csv").read_bytes()
    assert actual == expected, csv_changes(expected.decode(), actual.decode())


def test_pin_report_names_the_first_moved_line_and_each_columns_largest_change():
    expected = "t,est,trigger\r\n0,0.5,\r\n1,0.25,\r\n2,1.0,\r\n"
    actual = "t,est,trigger\r\n0,0.5,\r\n1,0.3,external\r\n2,0.875,\r\n"
    assert csv_changes(expected, actual).splitlines() == [
        "first differing line 3:",
        "  expected ['1', '0.25', '']",
        "  actual   ['1', '0.3', 'external']",
        "est: largest change 0.125",
        "trigger: 1 rows differ",
    ]
    assert csv_changes(expected, expected + "3,0.5,\r\n").splitlines() == ["3 rows are now 4"]
    assert csv_changes(expected, "t,est\r\n") == "header [['t', 'est', 'trigger']] is now [['t', 'est']]"


def test_window_above_five_can_fire(monkeypatch):
    accuracies = iter(np.linspace(0.9, 0.6, 14))

    def falling(model, x, labels, config, ema_error, position):
        accuracy = float(next(accuracies))
        return EstimateReport(
            pdd=0.0, e_avg=0.0, b_weight=1.0, raw_error=1.0 - accuracy,
            smoothed_error=1.0 - accuracy,
        )

    monkeypatch.setattr(harness, "aetta_estimate", falling)
    config = tiny_config(
        recovery=RecoveryPolicy(kind="aetta_reset", window=6, hard_threshold=0.0),
        n_batches=14,
        batch_size=4,
    )
    records = harness.run_experiment(config).records_by_seed[0]
    # two full windows of six first exist at batch 11
    assert [r.trigger for r in records] == [""] * 11 + ["window_degradation"] * 3


def test_history_is_bounded_ring(monkeypatch):
    """The window handed to should_reset keeps the last 2 * window smoothed
    accuracies, oldest first, and survives rollbacks."""
    seen = []
    real = harness.should_reset

    def spy(policy, history, **signals):
        seen.append(list(history))
        return real(policy, history, **signals)

    monkeypatch.setattr(harness, "should_reset", spy)
    config = tiny_config(
        recovery=RecoveryPolicy(kind="aetta_reset", window=2, hard_threshold=0.65), n_batches=9, batch_size=8
    )
    records = harness.run_experiment(config).records_by_seed[0]
    accs = [r.estimates["aetta"] for r in records]
    assert any(r.reset for r in records)
    assert seen == [accs[max(0, t - 3) : t + 1] for t in range(9)]


def test_aetta_reset_needs_the_aetta_estimator():
    """Only AETTA fills the window; without it the policy could never fire."""
    with pytest.raises(harness.HarnessError, match="aetta estimator"):
        tiny_config(
            recovery=RecoveryPolicy(kind="aetta_reset", hard_threshold=0.99), estimators_enabled=("softmax",)
        )


STATE_NAMES = [name for name, _ in named_state(build_mlp(4, 3, hidden=(8,)))]


# policies that roll back but would not fire on a finite model here, and the
# triggers they give without a non-finite parameter (dist_shift fires on the one
# segment boundary)
QUIET_ROLLBACKS = {
    "aetta_reset": (RecoveryPolicy(kind="aetta_reset", hard_threshold=0.0), [""] * 9),
    "mrs": (RecoveryPolicy(kind="mrs", mrs_threshold=0.0), [""] * 9),
    "dist_shift": (RecoveryPolicy(kind="dist_shift"), ["external"] + [""] * 8),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=20, deadline=None)
@example(kind="aetta_reset", at=2, name="blocks.0.norm.gamma", index=0, value=math.nan)
@example(kind="mrs", at=2, name="blocks.0.norm.gamma", index=0, value=math.nan)
@example(kind="dist_shift", at=5, name="head.bias", index=1, value=-math.inf)
# an infinite running variance leaves its unit at relu(beta), so the predictions stay finite
@example(kind="aetta_reset", at=2, name="blocks.0.norm.running_var", index=0, value=math.inf)
@example(kind="mrs", at=2, name="blocks.0.norm.running_var", index=0, value=math.inf)
@given(
    kind=st.sampled_from(sorted(QUIET_ROLLBACKS)),
    at=st.integers(1, 8),
    name=st.sampled_from(STATE_NAMES),
    index=st.integers(0, 2**16),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_model_is_rolled_back_on_that_batch(kind, at, name, index, value):
    policy, triggers = QUIET_ROLLBACKS[kind]
    config = tiny_config(recovery=policy, n_batches=9, batch_size=8)
    real = harness._adaptation_step
    steps = itertools.count(1)

    def poison(cfg, model, x, optimizer):
        # the step after batch at-1 leaves the model that batch at sees
        real(cfg, model, x, optimizer)
        if next(steps) == at:
            # a rollback writes the checkpoint's values into the poisoned copy
            arr = writable_state(model, name)
            arr.flat[index % arr.size] = value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_adaptation_step", poison)
        records = harness.run_experiment(config).records_by_seed[0]
    expected = ["non_finite" if t == at else trigger for t, trigger in enumerate(triggers)]
    assert [r.trigger for r in records] == expected
    assert all(math.isfinite(r.estimates["aetta"]) for r in records)


@settings(max_examples=15, deadline=None)
@example(kind="aetta_reset", at=1, seed=0)
@example(kind="mrs", at=8, seed=1)
@example(kind="dist_shift", at=4, seed=2)
@given(kind=st.sampled_from(sorted(QUIET_ROLLBACKS)), at=st.integers(1, 8), seed=st.integers(0, 3))
def test_dead_model_is_rolled_back_on_the_next_batch(kind, at, seed):
    """Zeroing the last block's gamma and beta closes every relu, so every row's
    logits are the head bias: the batch after the kill rolls back with
    ``constant_output``, and ``load_run_csv`` reads that trigger back."""
    policy, triggers = QUIET_ROLLBACKS[kind]
    config = tiny_config(recovery=policy, n_batches=9, batch_size=8, seeds=(seed,))
    last = f"blocks.{len(config.architecture) - 1}.norm"
    real = harness._adaptation_step
    steps = itertools.count(1)

    def kill(cfg, model, x, optimizer):
        real(cfg, model, x, optimizer)
        if next(steps) == at:
            writable_state(model, f"{last}.gamma")[:] = 0.0
            writable_state(model, f"{last}.beta")[:] = 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_adaptation_step", kill)
        result = harness.run_experiment(config)
    expected = ["constant_output" if t == at else trigger for t, trigger in enumerate(triggers)]
    assert [r.trigger for r in result.records_by_seed[0]] == expected
    with tempfile.TemporaryDirectory() as out:
        harness.write_run_csv(result, Path(out) / "run.csv")
        [loaded] = harness.load_run_csv(Path(out) / "run.csv")
    assert [r.trigger for r in loaded] == expected and [r.reset for r in loaded] == [bool(t) for t in expected]


def test_a_one_row_batch_is_not_constant_output():
    """One row is constant by definition, so a one-row stream never rolls back for it."""
    config = tiny_config(recovery=RecoveryPolicy(kind="mrs", mrs_threshold=0.0), n_batches=6, batch_size=1)
    assert [r.trigger for r in harness.run_experiment(config).records_by_seed[0]] == [""] * 6


def test_load_run_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(harness.HarnessError):
        harness.load_run_csv(path)


@pytest.mark.parametrize("reset, trigger", [("1", ""), ("0", "external"), ("yes", "external")])
def test_load_run_csv_rejects_reset_that_disagrees_with_trigger(tmp_path, reset, trigger):
    path = tmp_path / "run.csv"
    row = {name: "" for name in harness.CSV_COLUMNS}
    row.update(t="0", corruption="gaussian_noise", severity="2", true_acc="0.5", reset=reset, trigger=trigger)
    path.write_text(",".join(harness.CSV_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(harness.HarnessError, match="disagrees"):
        harness.load_run_csv(path)


@pytest.mark.parametrize("severity", ["6", "-1"])
def test_load_run_csv_rejects_a_severity_outside_zero_to_five(tmp_path, severity):
    """Corruption severities run 0..5, so a row outside them is rejected, while
    0 and 5 load."""
    path = tmp_path / "run.csv"
    row = {name: "" for name in harness.CSV_COLUMNS}
    row.update(seed="0", corruption="gaussian_noise", true_acc="0.5", reset="0", est_softmax="0.5")
    lines = [",".join(harness.CSV_COLUMNS)]
    for t, value in enumerate(("0", "5", severity)):
        row.update(t=str(t), severity=value)
        lines.append(",".join(row.values()))
    path.write_text("\n".join(lines[:3]) + "\n")
    assert [r.severity for r in harness.load_run_csv(path)[0]] == [0, 5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(harness.HarnessError, match=f"seed 0 t=2: severity {severity} is outside 0..5"):
        harness.load_run_csv(path)


@pytest.mark.parametrize("row, cleared", [(2, "est_gde"), (4, "est_aetta"), (5, "")])
def test_load_run_csv_rejects_rows_that_enable_different_estimators(tmp_path, row, cleared):
    """One run enables one set of estimators: a row of either seed that drops one
    (rows 2 and 4, seed 1 from row 4 on), or fills one the run left out (row 5),
    is rejected."""
    result = harness.run_experiment(tiny_config(seeds=(0, 1), estimators_enabled=("softmax", "gde", "aetta")))
    path = tmp_path / "run.csv"
    harness.write_run_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if cleared:
        rows[row][cleared] = rows[row]["err" + cleared[3:]] = ""
    else:
        rows[row]["est_srcvalid"], rows[row]["err_srcvalid"] = "0.5", "0.25"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=harness.CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(harness.HarnessError, match=f"seed {rows[row]['seed']} t={rows[row]['t']}: estimates"):
        harness.load_run_csv(path)


def test_identical_configs_produce_bitwise_identical_outputs(tmp_path):
    config = tiny_config()
    for name in ("one", "two"):
        result = harness.run_experiment(config)
        harness.emit_outputs(result, tmp_path / name)
    assert (tmp_path / "one" / "run.csv").read_bytes() == (
        tmp_path / "two" / "run.csv"
    ).read_bytes()
    assert (tmp_path / "one" / "summary.csv").read_bytes() == (
        tmp_path / "two" / "summary.csv"
    ).read_bytes()


def test_emit_outputs_builds_each_record_once(monkeypatch, tmp_path):
    """run.csv, summary.csv and seed 0's traces read one list of each seed's
    records, so a store builds each of its records once per emit."""
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    built = []
    real = harness.RunRecord

    def counted(*args, **kwargs):
        built.append(kwargs["batch_index"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "RunRecord", counted)
    harness.emit_outputs(result, tmp_path)
    assert len(built) == sum(len(records) for records in result.records_by_seed) == 8


def test_emitted_svgs_are_well_formed_xml(tmp_path):
    result = harness.run_experiment(tiny_config())
    written = harness.emit_outputs(result, tmp_path)
    svgs = [p for p in written if p.suffix == ".svg"]
    assert len(svgs) == len(harness.ESTIMATOR_NAMES)
    for path in svgs:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_trace_svg_rejects_mismatched_series(tmp_path):
    with pytest.raises(ValueError):
        plots.accuracy_trace_svg([0.5, 0.6], [0.5], [], "x", tmp_path / "x.svg")
    with pytest.raises(ValueError):
        plots.accuracy_trace_svg([], [], [], "x", tmp_path / "x.svg")


def test_reset_markers_and_title_survive_in_svg(tmp_path):
    path = tmp_path / "t.svg"
    plots.accuracy_trace_svg([0.9, 0.2, 0.8], [0.8, 0.3, 0.7], [1], "demo & title", path)
    text = path.read_text()
    root = ET.parse(path).getroot()
    assert "demo &amp; title" in text
    assert root.attrib["width"] == "720"


def test_trace_title_is_escaped_as_saxutils_escapes_it(tmp_path):
    from xml.sax.saxutils import escape  # the test may load it; the package must not

    title = """a & b < c > d "e" 'f'"""
    path = tmp_path / "t.svg"
    plots.accuracy_trace_svg([0.9, 0.2], [0.8, 0.3], [], title, path)
    assert f'font-size="13">{escape(title)}</text>' in path.read_text()
    ns = "{http://www.w3.org/2000/svg}"
    texts = [el.text for el in ET.parse(path).getroot().iter(f"{ns}text")]
    assert texts[0] == title


def test_srcvalid_tracks_true_accuracy_without_shift_or_adaptation():
    config = tiny_config(
        fully_corruption=CorruptionSpec(kind="gaussian_noise", severity=0, seed=5),
        adaptation=dataclasses.replace(tiny_config().adaptation, method="none"),
        n_batches=2,
        batch_size=32,
    )
    records = harness.run_experiment(config).records_by_seed[0]
    for r in records:
        # same model, same distribution: only binomial noise separates the two
        p = r.estimates["srcvalid"]
        band = 3.0 * np.sqrt(p * (1.0 - p) / 32) + 0.05
        assert abs(r.true_accuracy - p) <= band


def test_episodic_restores_checkpoint_before_every_batch(monkeypatch):
    config = tiny_config(
        recovery=RecoveryPolicy(kind="episodic"),
        n_batches=5,
        batch_size=12,
    )
    task = prepared_task(TINY, architecture=(8,), epochs=3, train_seed=0)
    reference = dict(named_parameters(task.checkpoint))

    drift = []
    original = harness._adaptation_step

    def watcher(cfg, model, x, optimizer):
        # estimation has already happened for this batch; under episodic
        # recovery the weights must still equal the source checkpoint here
        worst = max(
            float(np.max(np.abs(param - reference[name])))
            for name, param in named_parameters(model)
        )
        drift.append(worst)
        original(cfg, model, x, optimizer)

    monkeypatch.setattr(harness, "_adaptation_step", watcher)
    result = harness.run_experiment(config)
    records = result.records_by_seed[0]
    assert len(drift) == 5
    assert all(d == 0.0 for d in drift)
    assert all(r.reset and r.trigger == "external" for r in records)


def test_failing_seed_is_isolated_and_flagged(monkeypatch):
    original = harness._run_seed

    def flaky(config, seed):
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return original(config, seed)

    monkeypatch.setattr(harness, "_run_seed", flaky)
    result = harness.run_experiment(tiny_config(seeds=(0, 1, 2)))
    assert result.failed
    errors = {o.seed: o.error for o in result.outcomes}
    assert errors[0] is None and errors[2] is None
    assert "synthetic failure" in errors[1]
    assert len(result.records_by_seed) == 2


def test_seeds_run_with_the_small_ufunc_buffer_and_restore_the_callers(monkeypatch, caller_ufunc_buffer):
    """Every seed runs with numpy's ufunc buffer at ``nn.UFUNC_BUFFER_ELEMENTS``;
    the caller's size is back after the run, also when a seed or every seed raises."""
    seen = []

    def recording(logits):
        seen.append(np.getbufsize())
        if len(seen) == 1:
            raise RuntimeError("synthetic failure")
        return softmax_score(logits)

    monkeypatch.setattr(harness, "softmax_score", recording)
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    assert [o.error is None for o in result.outcomes] == [False, True]
    # seed 0 stops at its first batch; seed 1 scores all four
    assert len(seen) == 1 + 4 and set(seen) == {nn.UFUNC_BUFFER_ELEMENTS}
    assert np.getbufsize() == caller_ufunc_buffer

    monkeypatch.setattr(harness, "softmax_score", lambda logits: 1 / 0)
    with pytest.raises(harness.HarnessError, match="all seeds failed"):
        harness.run_experiment(tiny_config(seeds=(0, 1)))
    assert np.getbufsize() == caller_ufunc_buffer


def test_all_seeds_failing_raises(monkeypatch):
    monkeypatch.setattr(
        harness, "_run_seed", lambda config, seed: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    with pytest.raises(harness.HarnessError, match="all seeds failed"):
        harness.run_experiment(tiny_config(seeds=(0, 1)))


def test_config_validation():
    with pytest.raises(harness.HarnessError):
        tiny_config(seeds=())
    with pytest.raises(harness.HarnessError):
        tiny_config(scenario="weekly")
    with pytest.raises(harness.HarnessError):
        tiny_config(estimators_enabled=("aetta", "psychic"))
    with pytest.raises(harness.HarnessError):
        tiny_config(n_batches=0)
    with pytest.raises(harness.HarnessError):
        tiny_config(batches_per_segment=0)
    with pytest.raises(harness.HarnessError):
        harness.ExperimentConfig(scenario="fully", fully_corruption=None)


@pytest.mark.parametrize("scenario", ["continual", "collapse"])
@pytest.mark.parametrize(
    "setting", [{"n_batches": 7}, {"fully_corruption": {"kind": "rotation", "severity": 2}}], ids=["n_batches", "corruption"]
)
def test_fully_only_settings_are_rejected_in_other_scenarios(scenario, setting):
    """A continual or collapse stream has 15 segments whatever these fields say,
    so setting them there is an error, not a silent no-op."""
    with pytest.raises(harness.HarnessError, match="n_batches and fully_corruption") as info:
        harness.config_from_dict({**setting, "scenario": scenario})
    assert repr(scenario) in str(info.value)


def test_negative_experiment_seeds_are_rejected():
    """numpy refuses a negative seed only inside the run, so one would fail its
    seed late, and a list of only negative seeds would end in "all seeds failed"."""
    for seeds in [(-1, 0), (-3,)]:
        with pytest.raises(harness.HarnessError, match="seeds"):
            harness.ExperimentConfig(seeds=seeds)
    with pytest.raises(harness.HarnessError, match="seeds"):
        harness.config_from_dict({"seeds": [0, -2]})


def test_repeated_seeds_are_rejected():
    """A repeated seed would run twice and report an mae_std of 0 across one seed."""
    with pytest.raises(harness.HarnessError, match=r"seeds \[0\] repeat"):
        harness.ExperimentConfig(seeds=(0, 0))
    with pytest.raises(harness.HarnessError, match=r"seeds \[1, 3\] repeat"):
        harness.config_from_dict({"seeds": [3, 1, 2, 3, 1]})
    assert harness.ExperimentConfig(seeds=(2, 0, 1)).seeds == (2, 0, 1)


def test_malformed_source_settings_are_rejected():
    """A negative epoch count would skip training and the accuracy gate alike,
    and a zero-width block or none at all fails every seed inside build_mlp."""
    with pytest.raises(harness.HarnessError, match="train_epochs"):
        harness.ExperimentConfig(train_epochs=-3)
    for architecture in [(), (0,), (64, 0), (-1, 8)]:
        with pytest.raises(harness.HarnessError, match="architecture"):
            harness.ExperimentConfig(architecture=architecture)
    # an untrained source model is a supported case
    assert harness.ExperimentConfig(train_epochs=0).train_epochs == 0


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"adaptation": AdaptConfig(method="bn_stats"), "estimators_enabled": ("softmax",)},
        {"adaptation": AdaptConfig(method="none"), "estimators_enabled": ("softmax", "aetta")},
        {
            "adaptation": AdaptConfig(method="none"),
            "estimators_enabled": ("srcvalid", "softmax", "gde", "advperturb"),
        },
    ],
    ids=["tent", "bn-stats", "aetta", "baselines"],
)
def test_a_model_with_no_hidden_block_is_rejected_where_it_cannot_work(changes):
    """Every model needs a hidden block, whatever the adaptation and estimators:
    without one, TENT and BN statistics have no batchnorm layer, and no dropout
    member can flip, so AETTA's PDD is 0 on every batch and reads accuracy 1."""
    with pytest.raises(harness.HarnessError, match="at least one hidden block"):
        harness.ExperimentConfig(architecture=(), **changes)


def test_collapse_preset_pins_adaptation_and_schedule():
    preset = harness.collapse_preset()
    assert preset.scenario == "collapse"
    assert preset.adaptation.method == "tent"
    assert preset.adaptation.learning_rate == harness.COLLAPSE_LEARNING_RATE
    collapse = harness._segments(preset, 4, 1200)
    continual = harness._segments(harness.ExperimentConfig(), 4, 1200)
    assert [c.severity for c, _ in collapse] == [5] * 15
    assert [c.severity for c, _ in continual] == [5, 4, 3] * 5
    assert [c.kind for c, _ in collapse] == [c.kind for c, _ in continual]
    assert {n for _, n in collapse} == {4}
    with pytest.raises(harness.HarnessError, match="collapse.*fully"):
        harness.collapse_preset(tiny_config())


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "config.json"
    for config in (
        tiny_config(recovery=RecoveryPolicy(kind="aetta_reset", window=3)),
        tiny_config(fully_corruption=CorruptionSpec(kind="mixup", severity=4, seed=9), n_batches=None),
        harness.collapse_preset(harness.ExperimentConfig(seeds=(3, 7), architecture=(32, 16))),
    ):
        harness.save_config(config, path)
        assert harness.load_config(path) == config


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(harness.HarnessError, match="unknown config keys"):
        harness.config_from_dict({"batch_sise": 32})
    with pytest.raises(harness.HarnessError, match="unknown dataset keys"):
        harness.config_from_dict({"dataset": {"classcount": 3}})
    with pytest.raises(harness.HarnessError, match="must be an object"):
        harness.config_from_dict({"dataset": 7})
    # null stands for None only where the field may be None
    for key in ("dataset", "adaptation", "estimator", "recovery"):
        with pytest.raises(harness.HarnessError, match=f"'{key}' must be an object"):
            harness.config_from_dict({key: None})
    assert harness.config_from_dict({"fully_corruption": None}).fully_corruption is None
    # keys of removed options
    with pytest.raises(harness.HarnessError, match="unknown config keys"):
        harness.config_from_dict({"out_dir": "results"})
    with pytest.raises(harness.HarnessError, match="unknown estimator keys"):
        harness.config_from_dict({"estimator": {"history_capacity": 10}})
    for key in ("holdout_cap", "softmax_temperature", "adv_epsilon", "mrs_ema", "collapse"):
        with pytest.raises(harness.HarnessError, match=f"unknown config keys \\['{key}'\\]"):
            harness.config_from_dict({key: 1})
    for section, key in (
        ("estimator", "ema_coefficient"),
        ("estimator", "entropy_floor"),
        ("recovery", "comparison"),
        ("dataset", "label_noise"),
    ):
        with pytest.raises(harness.HarnessError, match=f"unknown {section} keys \\['{key}'\\]"):
            harness.config_from_dict({section: {key: 1}})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"batch_size": True}, "batch_size"),
        ({"train_epochs": 2.5}, "train_epochs"),
        ({"seeds": [0.5]}, "seeds"),
        ({"estimator": {"n_dropout": 2.5}}, "n_dropout"),
        ({"seeds": 3}, "seeds"),
        ({"estimator": {"alpha": "3"}}, "alpha"),
    ],
)
def test_config_values_of_the_wrong_json_type_are_rejected(data, key):
    """Unchecked, a bool ran 1-row batches, a fraction failed every seed later,
    and a scalar or string tuple raised a bare TypeError."""
    with pytest.raises(harness.HarnessError, match=f"key '{key}' must be"):
        harness.config_from_dict(data)


def test_config_from_dict_accepts_partial_updates():
    config = harness.config_from_dict(
        {"seeds": [4, 5], "architecture": [32], "estimator": {"alpha": 1.5}}
    )
    assert config.seeds == (4, 5)
    assert config.architecture == (32,)
    assert config.estimator.alpha == 1.5
    assert config.estimator.n_dropout == 10
    assert config.batch_size == 64
    # an integral float setting may be written without a fraction
    assert harness.config_from_dict({"estimator": {"alpha": 3}}).estimator.alpha == 3.0
