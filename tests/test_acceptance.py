"""Acceptance suite: eleven numbered gates, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import dataclasses
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import finite_differences
import oracle
from aetta import harness, nn
from aetta.estimators import AettaConfig, aetta_estimate, pdd, robust_weight
from aetta.streams import prepared_task
from aetta.tta import RecoveryPolicy

_MODULE_T0 = time.perf_counter()
_LN10 = math.log(10.0)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def collapse_result():
    t0 = time.perf_counter()
    result = harness.run_experiment(harness.collapse_preset())
    return result, time.perf_counter() - t0


def test_criterion_01_exact_disagreement_identity_on_calibrated_spaces():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        space = oracle.random_calibrated_space(
            int(rng.integers(1, 21)), int(rng.integers(2, 11)), rng
        )
        worst = max(worst, oracle.verify_theorem1(space))
    control = oracle.verify_theorem1(oracle.mis_calibrated_fixture())
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "calibrated spaces match error and disagreement exactly",
        worst <= 1e-12 and control >= 1e-3 and elapsed < 1.0,
        f"max residual {worst:.2e}, control {control:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_corrected_identity_across_construction_sweep():
    t0 = time.perf_counter()
    rows = oracle.theorem2_sweep()
    worst = max(residual for _, _, residual in rows)

    probs = np.full(4, 0.25)
    other = np.full((4, 2), 0.5)
    degenerate = oracle.make_robust_construction(probs, other, q0=0.4, b=1.0)
    reduction = oracle.verify_theorem2(degenerate)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "weighted identity holds across the (q0, b) sweep",
        len(rows) >= 100
        and worst <= 1e-10
        and degenerate.space.is_calibrated
        and reduction <= 1e-12
        and elapsed < 1.0,
        f"{len(rows)} constructions, max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_estimator_unit_identities():
    rng = np.random.default_rng(42)
    bitwise = True
    for i in range(100):
        k = int(rng.integers(2, 11))
        model = nn.build_mlp(6, k, hidden=(12,), seed=int(rng.integers(0, 100_000)))
        x = rng.normal(size=(8, 6))
        config = AettaConfig(n_dropout=4, alpha=0.0, base_seed=i)
        base = np.argmax(nn.forward(model, x, nn.Deterministic()), axis=-1)
        hidden = nn.last_hidden(model, x)
        report = aetta_estimate(model, hidden, base, config, None, (0, 0))

        ensemble = np.stack(list(nn.dropout_forwards(model, hidden, 4, (i, 0, 0))))
        expected = pdd(base, np.argmax(ensemble, axis=-1))
        bitwise = bitwise and report.smoothed_error == expected and report.pdd == expected

    unit_b = abs(robust_weight(_LN10, 10, alpha=3.0) - 1.0) <= 1e-12
    eight_b = abs(robust_weight(0.5 * _LN10, 10, alpha=3.0) - 8.0) <= 1e-12
    _report(
        3,
        "zero exponent reduces the estimate to raw disagreement; weight anchors hold",
        bitwise and unit_b and eight_b,
        "100 batches bitwise, b(ln K)=1, b(half ln 10)=8",
    )


def test_criterion_04_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 20:
        input_dim = int(rng.integers(2, 6))
        model = nn.build_mlp(
            input_dim,
            int(rng.integers(2, 5)),
            hidden=(int(rng.integers(3, 8)),),
            seed=int(rng.integers(0, 10_000)),
        )
        x = rng.normal(size=(4, input_dim))
        # central differences are only a valid oracle away from ReLU kinks
        if finite_differences.relu_kink_margin(model, x, nn.Deterministic()) < 1e-3:
            continue
        analytic = nn.backward(model, x, mode=nn.Deterministic())
        numeric = finite_differences.finite_difference_gradients(model, x, mode=nn.Deterministic())
        worst = max(worst, finite_differences.gradcheck_max_error(analytic, numeric))
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "finite differences confirm backpropagation on 20 random models",
        worst <= 1e-4 and elapsed < 10.0,
        f"max scaled error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_ensemble_size_barely_moves_the_estimate():
    maes = {}
    for n in (5, 10, 15):
        config = harness.ExperimentConfig(
            estimator=AettaConfig(n_dropout=n),
            estimators_enabled=("aetta",),
        )
        result = harness.run_experiment(config)
        maes[n] = harness.seed_mean_mae(result.records_by_seed, "aetta")
    spread = max(maes.values()) - min(maes.values())
    _report(
        5,
        "estimate quality is insensitive to the ensemble size",
        spread < 0.03,
        "MAE " + ", ".join(f"N={n}: {v:.4f}" for n, v in maes.items()) + f"; spread {spread:.4f}",
    )


def test_criterion_06_estimator_ordering_under_collapse(collapse_result):
    result, elapsed = collapse_result
    by_seed = result.records_by_seed
    mae_aetta = harness.seed_mean_mae(by_seed, "aetta")
    mae_softmax = harness.seed_mean_mae(by_seed, "softmax")
    mae_gde = harness.seed_mean_mae(by_seed, "gde")
    _report(
        6,
        "dropout-disagreement estimate beats confidence and agreement baselines",
        not result.failed and mae_aetta < mae_softmax and mae_aetta < mae_gde and elapsed < 120.0,
        f"MAE aetta {mae_aetta:.4f} vs softmax {mae_softmax:.4f}, gde {mae_gde:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_collapse_is_detected_not_mirrored(collapse_result):
    result, _ = collapse_result
    ok = True
    details = []
    for records in result.records_by_seed:
        tail = records[3 * len(records) // 4 :]
        e_tail = float(np.mean([r.aetta_report.e_avg for r in tail]))
        softmax_bias = float(np.mean([r.estimates["softmax"] - r.true_accuracy for r in records]))
        aetta_bias = float(np.mean([r.estimates["aetta"] - r.true_accuracy for r in records]))
        ok = ok and e_tail < 0.5 * _LN10 and softmax_bias > 0.2 and aetta_bias < 0.1
        details.append(f"seed {records[0].seed}: e {e_tail:.2f}, sm +{softmax_bias:.2f}, ae {aetta_bias:+.2f}")
    _report(
        7,
        "entropy collapses, confidence overestimates, the estimator does not",
        ok,
        "; ".join(details),
    )


def test_criterion_08_reset_recovers_accuracy_and_episodic_is_bitwise(monkeypatch, collapse_result):
    no_reset, _ = collapse_result
    base_true = float(
        np.mean([r.true_accuracy for recs in no_reset.records_by_seed for r in recs])
    )
    with_reset = harness.run_experiment(
        dataclasses.replace(harness.collapse_preset(), recovery=RecoveryPolicy(kind="aetta_reset"))
    )
    reset_true = float(
        np.mean([r.true_accuracy for recs in with_reset.records_by_seed for r in recs])
    )
    reset_events = sum(r.reset for recs in with_reset.records_by_seed for r in recs)

    episodic_ok = True
    original = harness._adaptation_step
    for seed in (0, 1, 2):
        preset = harness.collapse_preset()
        config = dataclasses.replace(preset, recovery=RecoveryPolicy(kind="episodic"), seeds=(seed,))
        task = prepared_task(
            config.dataset,
            architecture=config.architecture,
            epochs=config.train_epochs,
            train_seed=seed,
        )
        reference = dict(nn.named_parameters(task.checkpoint))
        drift = []

        def watcher(cfg, model, x, optimizer, reference=reference, drift=drift):
            worst = max(
                float(np.max(np.abs(param - reference[name])))
                for name, param in nn.named_parameters(model)
            )
            drift.append(worst)
            original(cfg, model, x, optimizer)

        monkeypatch.setattr(harness, "_adaptation_step", watcher)
        harness.run_experiment(config)
        monkeypatch.setattr(harness, "_adaptation_step", original)
        episodic_ok = episodic_ok and len(drift) > 0 and all(d == 0.0 for d in drift)

    _report(
        8,
        "estimator-triggered rollback recovers accuracy; per-batch reset is bitwise",
        reset_true > base_true and reset_events >= 1 and episodic_ok,
        f"true accuracy {base_true:.3f} -> {reset_true:.3f}, {reset_events} resets",
    )


def test_criterion_09_outputs_are_deterministic_and_parseable(tmp_path):
    config = harness.ExperimentConfig(seeds=(0,))
    paths = []
    for name in ("a", "b"):
        result = harness.run_experiment(config)
        paths.append(harness.emit_outputs(result, tmp_path / name))
    bitwise = (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()

    loaded = harness.load_run_csv(tmp_path / "a" / "run.csv")
    reread = harness.run_experiment(config).records_by_seed
    round_trips = len(loaded) == 1 and all(
        a.estimates == b.estimates and a.true_accuracy == b.true_accuracy
        for a, b in zip(loaded[0], reread[0])
    )
    svgs_parse = all(
        ET.parse(p).getroot().tag.endswith("svg") for p in paths[0] if p.suffix == ".svg"
    )
    _report(
        9,
        "identical configs yield bitwise-identical CSV; CSV round-trips; SVG parses",
        bitwise and round_trips and svgs_parse,
    )


def test_criterion_11_aetta_beats_the_mean_baseline(collapse_result):
    """Criterion 10 times the whole suite, so it stays last in file order."""
    continual = harness.run_experiment(harness.ExperimentConfig()).records_by_seed
    ok, details = True, []
    for name, by_seed in (("continual", continual), ("collapse", collapse_result[0].records_by_seed)):
        aetta = harness.seed_mean_mae(by_seed, "aetta")
        others = [e for e in harness.ESTIMATOR_NAMES if e != "aetta"]
        baselines = float(np.mean([harness.seed_mean_mae(by_seed, e) for e in others]))
        ok = ok and aetta < baselines
        details.append(f"{name}: aetta {aetta:.4f} vs baseline mean {baselines:.4f}")
    _report(11, "the estimate's MAE is below the four baselines' mean", ok, "; ".join(details))


def test_criterion_10_suite_finishes_inside_the_budget():
    elapsed = time.perf_counter() - _MODULE_T0
    _report(10, "acceptance suite runtime", elapsed < 300.0, f"{elapsed:.1f}s of 300s budget")
