import dataclasses
import hashlib
import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aetta import harness, plots
from aetta.estimators import AettaConfig, EstimateReport, EstimatorState, softmax_score, src_valid
from aetta.nn import build_mlp, forward_logits, named_parameters
from aetta.streams import CorruptionSpec, DatasetSpec, prepared_task
from aetta.tta import RecoveryPolicy

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
    from aetta.streams import make_stream, Fully

    stream = make_stream(
        Fully(config.fully_corruption, n_batches=4), task.holdout, batch_size=16, seed=0
    )
    logits = forward_logits(task.checkpoint, stream[0].features)
    assert first.estimates["softmax"] == softmax_score(logits)
    cap = min(config.holdout_cap, len(task.holdout))
    assert first.estimates["srcvalid"] == src_valid(
        task.checkpoint, task.holdout.features[:cap], task.holdout.labels[:cap]
    )
    assert first.estimates["gde"] == 1.0


def test_estimates_precede_adaptation(monkeypatch):
    seen = []
    original = harness._adaptation_step

    def probe(config, model, x, optimizer):
        seen.append(model.head.bias.copy())
        model.head.bias[0] += 50.0

    monkeypatch.setattr(harness, "_adaptation_step", probe)
    result = harness.run_experiment(tiny_config(adaptation=dataclasses.replace(
        tiny_config().adaptation, method="tent")))
    assert not result.failed
    # batch t's adaptation sees exactly t prior bumps, so every estimate at
    # batch t was computed before bump t happened
    for t, bias in enumerate(seen):
        assert bias[0] == pytest.approx(seen[0][0] + 50.0 * t)
    del original


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
    cells = first.split(",")
    assert cells[4] == "" and cells[6] == "" and cells[7] == ""
    assert cells[5] != "" and cells[8] != ""


def test_run_csv_round_trips(tmp_path):
    result = harness.run_experiment(tiny_config(seeds=(0, 1)))
    path = tmp_path / "run.csv"
    harness.write_run_csv(result, path)
    loaded = harness.load_run_csv(path)
    assert len(loaded) == 2
    for original, parsed in zip(result.records_by_seed, loaded):
        assert len(original) == len(parsed)
        for a, b in zip(original, parsed):
            assert b.batch_index == a.batch_index
            assert b.corruption_id == a.corruption_id
            assert b.severity == a.severity
            assert b.true_accuracy == a.true_accuracy
            assert b.estimates == a.estimates
            assert b.reset == a.reset
            assert b.trigger == a.trigger


# run.csv digests of tiny_config over 9 batches of 8 rows, one policy per
# recovery kind, each set so that it fires. They were recorded before the
# estimators shared one deterministic forward per batch; a change to output
# bytes has to record them again and say why in CHANGES.md.
PINNED_RUN_CSV = {
    "none": (RecoveryPolicy(), "6130fb4fdf037396bacc4ad1200b49fdd79d89873104769ffde5b789e64cf999"),
    "aetta_reset": (
        RecoveryPolicy(kind="aetta_reset", window=2, hard_threshold=0.65),
        "904bec1a5653ed3554616a96e44fe63ffe272b1e37306019ffe8fea2d36af3c8",
    ),
    "episodic": (
        RecoveryPolicy(kind="episodic"),
        "7ddf3213dbc9c52579b3f880ef6833406b09268b57c21dffdebbd409cd038ed6",
    ),
    "mrs": (
        RecoveryPolicy(kind="mrs", mrs_threshold=1.0),
        "af10c2f99c551a359e12532be8e127f0399301689c4b36f7a93a4cba365179ea",
    ),
    "stochastic_restore": (
        RecoveryPolicy(kind="stochastic_restore", restore_prob=0.5),
        "e354a8a0f312650e0a9bfd0770e2b99edb08c434a08760201588ebf753c8fc79",
    ),
    "dist_shift": (
        RecoveryPolicy(kind="dist_shift"),
        "add2b7676e716223cb3a288d55b5ff924f4a8d2b611d8cdd60fc82fa9d97fbf4",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_RUN_CSV))
def test_run_csv_bytes_are_pinned(tmp_path, kind):
    policy, digest = PINNED_RUN_CSV[kind]
    result = harness.run_experiment(tiny_config(recovery=policy, n_batches=9, batch_size=8))
    harness.write_run_csv(result, tmp_path / "run.csv")
    assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == digest


def test_window_above_five_can_fire(monkeypatch):
    accuracies = iter(np.linspace(0.9, 0.6, 14))

    def falling(model, x, labels, config, state):
        accuracy = float(next(accuracies))
        history = state.history.copy()
        history.append(accuracy)
        report = EstimateReport(
            pdd=0.0, e_avg=0.0, b_weight=1.0, raw_error=1.0 - accuracy,
            smoothed_error=1.0 - accuracy, smoothed_accuracy=accuracy,
        )
        return report, EstimatorState(ema_error=1.0 - accuracy, history=history)

    monkeypatch.setattr(harness, "aetta_estimate", falling)
    config = tiny_config(
        recovery=RecoveryPolicy(kind="aetta_reset", window=6, hard_threshold=0.0),
        n_batches=14,
        batch_size=4,
    )
    records = harness.run_experiment(config).records_by_seed[0]
    # two full windows of six first exist at batch 11
    assert [r.trigger for r in records] == [""] * 11 + ["window_degradation"] * 3


PARAMETER_NAMES = [name for name, _ in named_parameters(build_mlp(4, 3, hidden=(8,)))]


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
@given(
    kind=st.sampled_from(sorted(QUIET_ROLLBACKS)),
    at=st.integers(1, 8),
    name=st.sampled_from(PARAMETER_NAMES),
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
            param = dict(named_parameters(model))[name]
            param.flat[index % param.size] = value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_adaptation_step", poison)
        records = harness.run_experiment(config).records_by_seed[0]
    expected = ["non_finite" if t == at else trigger for t, trigger in enumerate(triggers)]
    assert [r.trigger for r in records] == expected
    assert all(math.isfinite(r.estimates["aetta"]) for r in records)


def test_load_run_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(harness.HarnessError):
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


def test_collapse_preset_pins_adaptation_and_schedule():
    preset = harness.collapse_preset()
    assert preset.collapse
    assert preset.scenario == "continual"
    assert preset.adaptation.method == "tent"
    assert preset.adaptation.learning_rate == harness.COLLAPSE_LEARNING_RATE


def test_config_json_round_trip(tmp_path):
    config = tiny_config(recovery=RecoveryPolicy(kind="aetta_reset", window=3))
    path = tmp_path / "config.json"
    harness.save_config(config, path)
    assert harness.load_config(path) == config


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(harness.HarnessError, match="unknown config keys"):
        harness.config_from_dict({"batch_sise": 32})
    with pytest.raises(harness.HarnessError, match="unknown dataset keys"):
        harness.config_from_dict({"dataset": {"classcount": 3}})
    with pytest.raises(harness.HarnessError, match="must be an object"):
        harness.config_from_dict({"dataset": 7})
    # keys of removed options
    with pytest.raises(harness.HarnessError, match="unknown config keys"):
        harness.config_from_dict({"out_dir": "results"})
    with pytest.raises(harness.HarnessError, match="unknown estimator keys"):
        harness.config_from_dict({"estimator": {"history_capacity": 10}})


def test_config_from_dict_accepts_partial_updates():
    config = harness.config_from_dict(
        {"seeds": [4, 5], "architecture": [32], "estimator": {"alpha": 1.5}}
    )
    assert config.seeds == (4, 5)
    assert config.architecture == (32,)
    assert config.estimator.alpha == 1.5
    assert config.estimator.n_dropout == 10
    assert config.batch_size == 64
