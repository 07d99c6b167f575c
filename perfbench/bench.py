"""One benchmark run: cold set-up, warm closed loop, output checks, metrics and report."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from aetta import harness, streams, tta

import loop
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_facts(seeds: tuple[int, ...]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "run_seeds": list(seeds),
    }


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cold_setup(configs) -> float:
    """Empty the source-model cache and prepare every (dataset, architecture, epochs, seed)
    the configs use, so every source model is trained again; seconds taken.

    The cache is left full for the closed loop.
    """
    keys = dict.fromkeys(
        (c.dataset, c.architecture, c.train_epochs, seed) for c in configs for seed in c.seeds
    )
    streams._TASK_CACHE.clear()
    began = time.perf_counter()
    for dataset, architecture, epochs, seed in keys:
        streams.prepared_task(dataset, architecture=architecture, epochs=epochs, train_seed=seed)
    return time.perf_counter() - began


def stream_peak_mb(configs) -> float:
    """Peak memory the warm loop allocates, in MB: the largest over the configs of one
    ``run_experiment`` call on the first experiment seed, measured with ``tracemalloc``
    (numpy reports its array buffers to it). Untimed: tracing slows every allocation.
    """
    peaks = []
    for config in configs:
        tracemalloc.start()
        try:
            harness.run_experiment(dataclasses.replace(config, seeds=config.seeds[:1]))
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        except Exception as exc:
            raise RuntimeError(f"the memory pass failed: {exc!r}") from exc
        finally:
            tracemalloc.stop()
    return max(peaks)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _complete(calls):
    return [c for c in calls if c.result is not None and not c.result.failed]


def best_batch_seconds(calls) -> list[float]:
    """Per batch position, the fastest of the calls' pull-to-pull gaps.

    Every call of a config runs the same seeds from the same cached models, so
    position i is the same batch with the same work in every call (the output
    check holds them to identical records). The fastest repeat is the batch's
    time with the machine at full speed; slow spells on a shared machine only
    ever add to it.
    """
    runs = [c.batch_seconds for c in _complete(calls)]
    if not runs or any(len(r) != len(runs[0]) for r in runs):
        raise RuntimeError("no complete call, or complete calls pulled different numbers of batches")
    return [min(repeats) for repeats in zip(*runs)]


def latency_ms(run, q: int) -> float:
    """The q-th percentile over batches of their fastest repeat, in ms, per config and averaged.

    Per config, because a mixture of ensemble sizes has gaps between its modes,
    and a percentile that falls in a gap jumps with small shifts in the mix.
    """
    return statistics.fmean(1e3 * _quantile(best_batch_seconds(calls), q) for calls in run.calls_by_config())


def batches_per_s(run) -> float:
    """Batches per second of one cycle timed from its parts' fastest repeats.

    A config's part is the sum of its batches' fastest repeats plus the least
    time one ``run_experiment`` call spent outside its batches (copying the
    cached models, building the stream, collecting records).
    """
    batches, seconds = 0, 0.0
    for calls in run.calls_by_config():
        best = best_batch_seconds(calls)
        batches += len(best)
        seconds += sum(best) + min(c.seconds - sum(c.batch_seconds) for c in _complete(calls))
    return batches / seconds


def end_to_end_metrics(run, checked, setup_seconds: list[float], peak_mb: float) -> dict[str, tuple[float, str]]:
    seed_lists = [r.records_by_seed for r in run.first_results() if r is not None]
    return {
        # the faster set-up, for the reason best_batch_seconds gives
        "setup_s": (min(setup_seconds), "s"),
        "batches_per_s": (batches_per_s(run), "batches/s"),
        "batch_ms_p50": (latency_ms(run, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "stream_peak_mb": (peak_mb, "MB"),
        "aetta_mae": (statistics.fmean(harness.seed_mean_mae(s, "aetta") for s in seed_lists), "fraction"),
        "mean_true_acc": (
            statistics.fmean(statistics.fmean(r.true_accuracy for r in recs) for s in seed_lists for recs in s),
            "fraction"),
        "seed_success_rate": (1.0 - checked.failed / checked.attempted, "fraction"),
    }


def traced_metrics(tracer, traced, untraced, checked) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round (every seed through every config once)."""
    metrics = tracing.per_layer_metrics(tracer.spans, traced.batches)
    records = [r for result in traced.first_results() if result is not None
               for recs in result.records_by_seed for r in recs]
    for trigger in (tta.TRIGGER_WINDOW, tta.TRIGGER_HARD):
        metrics[f"tta.resets.{trigger}"] = (float(sum(r.reset and r.trigger == trigger for r in records)), "count")
    metrics["harness.run_csv.bytes"] = (float(sum(checked.run_csv_bytes)), "bytes")
    metrics["trace.batches_per_s"] = (traced.batches / traced.wall_seconds, "batches/s")
    metrics["trace.untraced_batches_per_s"] = (untraced.batches / untraced.wall_seconds, "batches/s")
    metrics["trace.span_coverage"] = (tracing.stream_root_seconds(tracer.spans) / traced.wall_seconds, "fraction")
    return metrics


def run_workload(configs, seconds: float, trace: bool, out: Path):
    """Set up cold, run the closed loop warm, check; with ``trace``, then one traced round.

    Returns (metrics, checked, report) where metrics maps name -> (value, unit).
    """
    tracer = tracing.Tracer() if trace else None
    if tracer is None:
        setup_seconds = [cold_setup(configs)]
    else:
        with tracer.instrument():
            setup_seconds = [cold_setup(configs)]
    untraced = loop.closed_loop(configs, seconds)
    checked = loop.check_outputs(untraced, out / "untraced")
    if not untraced.batches or not any(untraced.first_results()):
        raise RuntimeError("no experiment call succeeded or no batch was pulled through "
                           "harness.make_stream:\n" + "\n".join(checked.problems))
    # Printed and reported, not gated: when the machine is slow for nine tenths
    # of a run, some batches get no fast repeat, and the 95th percentile falls
    # among them in one run and not in the next.
    report = {"batches_per_config": [len(best_batch_seconds(calls)) for calls in untraced.calls_by_config()],
              "cycles": untraced.cycles, "setups_s": setup_seconds, "batch_ms_p95": latency_ms(untraced, 95)}
    if tracer is None:
        # a second cold set-up, half a minute after the first, so that one slow
        # spell of the machine is less likely to cover both
        setup_seconds.append(cold_setup(configs))
        peak_mb = stream_peak_mb(configs)
        return end_to_end_metrics(untraced, checked, setup_seconds, peak_mb), checked, report

    with tracer.instrument():
        tracer.phase = "stream"
        traced = loop.closed_loop(configs, 0.0)
        tracer.phase = "output"
        traced_checked = loop.check_outputs(traced, out / "traced")
    tracer.write_csv(out / "spans.csv")
    metrics = traced_metrics(tracer, traced, untraced, checked)
    checked.attempted += traced_checked.attempted
    checked.failed += traced_checked.failed
    checked.problems += traced_checked.problems
    if traced_checked.run_csv_sha256 != checked.run_csv_sha256:
        checked.problems.append("the traced run.csv differs from the untraced one")
    report["traced_run_csv_sha256"] = traced_checked.run_csv_sha256
    return metrics, checked, report


def baseline_sha256(workload: str, seed: int) -> str | None:
    """The workload's run.csv digest for ``seed`` recorded in baseline.json, if it was recorded."""
    path = BENCH_DIR / "baseline.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text()).get("workloads", {}).get(workload, {})
    return recorded.get("run_csv_sha256_by_seed", {}).get(str(seed))


def main(args: argparse.Namespace) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seeds = workloads.run_seeds(args.seed)
    configs = workloads.WORKLOADS[args.workload](seeds)
    out = OUT / f"{args.workload}-seed{args.seed}"
    try:
        metrics, checked, details = run_workload(configs, args.seconds, bool(args.trace), out)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = checked.failed == 0 and not checked.problems
    # a changed digest is not an error (an estimator fix changes it), but it must show
    recorded = baseline_sha256(args.workload, args.seed)
    same_as_baseline = None if recorded is None else recorded == checked.workload_sha256
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "facts": run_facts(seeds), **details,
        "run_csv_sha256": checked.run_csv_sha256,
        "workload_run_csv_sha256": checked.workload_sha256,
        "run_csv_same_as_baseline": same_as_baseline,
        "problems": checked.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"perfbench {args.workload} seed {args.seed}: experiment seeds {list(seeds)}, "
          f"{len(configs)} config(s), trace {args.trace}")
    print("  " + ", ".join(f"{k}={v}" for k, v in report["facts"].items()))
    print(f"  run.csv sha256 {checked.workload_sha256}; same as baseline.json: "
          f"{'not recorded' if same_as_baseline is None else same_as_baseline}")
    print(f"  distinct batches per config {details['batches_per_config']}, each timed in {details['cycles']} cycles, "
          f"set-ups {[round(s, 3) for s in details['setups_s']]} s, "
          f"batch_ms_p95 {details['batch_ms_p95']:.6f} ms (not gated)")
    for problem in checked.problems:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": report["metrics"],
    }))
    return 0
