"""Checks on the benchmark itself, on a tiny task so they run in seconds.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from aetta import harness  # noqa: E402
from aetta.estimators import AettaConfig  # noqa: E402
from aetta.streams import CorruptionSpec, DatasetSpec  # noqa: E402
from aetta.tta import RecoveryPolicy  # noqa: E402

import loop  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_configs() -> tuple[harness.ExperimentConfig, ...]:
    """Two configs with every estimator on and resets firing, so every traced call runs."""
    base = harness.ExperimentConfig(
        dataset=DatasetSpec(class_count=3, input_dim=4, samples_per_class=200, seed=0),
        architecture=(8,),
        train_epochs=2,
        scenario="fully",
        fully_corruption=CorruptionSpec(kind="gaussian_noise", severity=3, seed=5),
        n_batches=5,
        batch_size=16,
        seeds=(0, 1),
        recovery=RecoveryPolicy(kind="aetta_reset", hard_threshold=0.99),
        estimator=AettaConfig(n_dropout=2),
    )
    return base, dataclasses.replace(base, batch_size=8)


@pytest.fixture
def traced(tmp_path):
    configs = tiny_configs()
    tracer = tracing.Tracer()
    with tracer.instrument():
        bench.cold_setup(configs)
    untraced = loop.closed_loop(configs, 0.0)
    with tracer.instrument():
        tracer.phase = "stream"
        traced_run = loop.closed_loop(configs, 0.0)
        tracer.phase = "output"
        traced_checked = loop.check_outputs(traced_run, tmp_path / "traced")
    return tracer, untraced, traced_run, loop.check_outputs(untraced, tmp_path / "untraced"), traced_checked


def benchmark_json() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_run_seeds_start_at_the_cli_defaults_and_never_overlap():
    assert workloads.run_seeds(0) == (0, 1, 2)
    seen = [s for n in range(20) for s in workloads.run_seeds(n)]
    assert len(seen) == len(set(seen))


def test_traced_run_csv_is_bitwise_the_untraced_one(traced):
    _, _, _, checked, traced_checked = traced
    assert checked.failed == traced_checked.failed == 0
    assert not checked.problems and not traced_checked.problems
    assert len(checked.run_csv_sha256) == 2
    assert traced_checked.run_csv_sha256 == checked.run_csv_sha256


def test_span_self_times_account_for_the_traced_wall_time(traced):
    tracer, _, traced_run, _, _ = traced
    stream = [i for i, s in enumerate(tracer.spans) if s.phase == "stream"]
    self_s, _ = tracing.self_and_net_seconds(tracer.spans)
    assert min(self_s[i] for i in stream) >= 0.0
    roots = tracing.stream_root_seconds(tracer.spans)
    assert math.isclose(sum(self_s[i] for i in stream), roots, rel_tol=1e-9)
    # the run_experiment spans cover the loop's own timing of those calls
    assert 0.99 <= roots / traced_run.wall_seconds <= 1.0


def test_tracing_restores_every_module_attribute():
    from aetta import nn, plots, streams

    modules = (harness, nn, plots, streams)

    def bindings():
        return [{name: id(value) for name, value in vars(m).items()} for m in modules]

    before = bindings()
    tracer = tracing.Tracer()
    with tracer.instrument():
        assert bindings() != before
    assert bindings() == before


def test_forward_counts_and_duplicates_are_exact(traced):
    tracer, _, traced_run, _, _ = traced
    first = tracing.per_layer_metrics(tracer.spans, traced_run.batches)
    second_tracer = tracing.Tracer()
    with second_tracer.instrument():
        second_tracer.phase = "stream"
        second = loop.closed_loop(tiny_configs(), 0.0)
    again = tracing.per_layer_metrics(second_tracer.spans, second.batches)
    for name in ("nn.forward.calls_per_batch", "nn.forward.rows_per_batch",
                 "nn.forward.duplicate_frac", "nn.backward.calls_per_batch", "tta.apply_reset.calls"):
        assert first[name] == again[name]
    # AETTA's base labels, softmax, GDE, true accuracy and the entropy EMA all
    # forward the current model on the same batch
    assert first["nn.forward.duplicate_frac"][0] > 0.0
    assert first["tta.apply_reset.calls"][0] > 0


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = benchmark_json()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, checked, _ = bench.run_workload(tiny_configs(), 0.0, trace, tmp_path / key)
        assert checked.failed == 0 and not checked.problems
        assert {name: unit for name, (_, unit) in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        assert all(math.isfinite(value) for value, _ in metrics.values())


def test_out_of_range_estimates_fail_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "softmax_score", lambda *args, **kwargs: 1.5)
    result = loop.closed_loop(tiny_configs(), 0.0)
    checked = loop.check_outputs(result, tmp_path)
    assert checked.failed == checked.attempted == 4


def test_results_that_change_between_cycles_fail_the_check(tmp_path, monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(harness, "softmax_score", lambda *args, **kwargs: 0.5 + 1e-9 * next(counter))
    configs = tiny_configs()[:1]
    result = loop.closed_loop(configs, 0.0)
    result.calls += loop.closed_loop(configs, 0.0).calls
    checked = loop.check_outputs(result, tmp_path)
    assert checked.attempted == 4 and checked.failed == 2
    assert all("first call" in p for p in checked.problems)


def test_a_run_csv_that_reads_back_differently_fails_the_check(tmp_path, monkeypatch):
    real = harness.load_run_csv
    monkeypatch.setattr(harness, "load_run_csv", lambda path: [seed[:-1] for seed in real(path)])
    checked = loop.check_outputs(loop.closed_loop(tiny_configs(), 0.0), tmp_path)
    assert checked.failed == checked.attempted == 4


def test_each_call_keeps_its_own_batch_latencies():
    configs = tiny_configs()
    result = loop.closed_loop(configs, 0.0)
    assert result.cycles == 1 and len(result.calls) == 2
    assert [len(c.batch_seconds) for c in result.calls] == [10, 10]
    assert [[c.config_index for c in calls] for calls in result.calls_by_config()] == [[0], [1]]


def test_a_failed_seed_counts_once_and_keeps_the_others(tmp_path, monkeypatch):
    real = harness._run_seed

    def run_seed(config, seed):
        if seed == 1 and config.batch_size == 8:
            raise ValueError("seed 1 fails")
        return real(config, seed)

    monkeypatch.setattr(harness, "_run_seed", run_seed)
    checked = loop.check_outputs(loop.closed_loop(tiny_configs(), 0.0), tmp_path)
    assert checked.attempted == 4 and checked.failed == 1
    assert len(checked.run_csv_sha256) == 2


def test_each_cold_set_up_retrains_from_an_empty_cache(monkeypatch):
    from aetta import nn, streams

    configs = tiny_configs()[:1]
    steps = []
    real = nn.optimizer_step
    monkeypatch.setattr(nn, "optimizer_step", lambda *a, **k: steps.append(1) or real(*a, **k))
    bench.cold_setup(configs)
    once = len(steps)
    assert bench.cold_setup(configs) > 0.0
    assert len(steps) == 2 * once > 0
    assert len(streams._TASK_CACHE) == 2


def test_latency_and_throughput_take_each_batch_fastest_repeat():
    config = tiny_configs()[0]
    result = harness.ExperimentResult(config=config, outcomes=[harness.SeedOutcome(seed=0, records=[])])
    run = loop.LoopRun(configs=(config,), cycles=2, calls=[
        loop.Call(0, 1.0, result, None, [0.1, 0.3]),
        loop.Call(0, 2.0, result, None, [0.2, 0.2]),
        loop.Call(0, 0.1, None, "raised", [0.01]),  # a failed call is no repeat
    ])
    assert bench.best_batch_seconds(run.calls) == [0.1, 0.2]
    # batches over their fastest repeats plus the least time a call spent outside them
    assert bench.batches_per_s(run) == pytest.approx(2 / (0.1 + 0.2 + 0.6))
    assert bench.latency_ms(run, 50) == pytest.approx(150.0)
    run.calls[1].batch_seconds.append(0.5)
    with pytest.raises(RuntimeError):
        bench.best_batch_seconds(run.calls)


def test_stream_peak_is_the_largest_config_peak():
    configs = tiny_configs()
    bench.cold_setup(configs)
    bench.stream_peak_mb(configs)  # first calls allocate one-off state
    peaks = [bench.stream_peak_mb((c,)) for c in configs]
    # arrays repeat exactly; small Python objects (log records, dict growth) may not
    assert bench.stream_peak_mb(configs) == pytest.approx(max(peaks), rel=0.01)
    assert min(peaks) > 0.0


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "continual", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
