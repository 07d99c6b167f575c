"""The closed loop and the output checks.

The loop is closed and single-process: the stream hands out batch t+1 only
after the harness has estimated, recovered and adapted on batch t. Per-batch
latency is the gap between successive pulls from the stream that
``harness.make_stream`` returns, so nothing is wrapped inside the loop body.

A cycle is one ``run_experiment`` call per config of the workload, each over
all of the workload's experiment seeds.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from aetta import harness


@dataclass
class Call:
    """One ``run_experiment`` call: one config over every experiment seed."""

    config_index: int
    seconds: float
    result: harness.ExperimentResult | None
    error: str | None = None
    batch_seconds: list[float] = field(default_factory=list)  # pull-to-pull gaps


@dataclass
class LoopRun:
    configs: tuple[harness.ExperimentConfig, ...]
    calls: list[Call]
    cycles: int

    @property
    def batches(self) -> int:
        return sum(len(c.batch_seconds) for c in self.calls)

    @property
    def wall_seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    def calls_by_config(self) -> list[list[Call]]:
        out: list[list[Call]] = [[] for _ in self.configs]
        for call in self.calls:
            out[call.config_index].append(call)
        return out

    def first_results(self) -> list[harness.ExperimentResult | None]:
        """Per config, the result of its first call that returned one."""
        return [next((c.result for c in calls if c.result is not None), None)
                for calls in self.calls_by_config()]


@contextmanager
def pull_timer(sink: list[list[float]]):
    """Make every stream the harness builds log its pull-to-pull gaps into ``sink[-1]``."""
    real = harness.make_stream

    def make_stream(*args, **kwargs):
        return _timed(real(*args, **kwargs), sink[-1])

    harness.make_stream = make_stream
    try:
        yield
    finally:
        harness.make_stream = real


def _timed(stream, gaps: list[float]):
    for batch in stream:
        pulled = time.perf_counter()
        yield batch
        gaps.append(time.perf_counter() - pulled)


def closed_loop(configs: tuple[harness.ExperimentConfig, ...], seconds: float) -> LoopRun:
    """Run cycles until ``seconds`` have passed and at least one cycle is done."""
    calls: list[Call] = []
    sink: list[list[float]] = []
    cycles = 0
    start = time.perf_counter()
    with pull_timer(sink):
        while cycles == 0 or time.perf_counter() - start < seconds:
            for index, config in enumerate(configs):
                sink.append([])
                began = time.perf_counter()
                try:
                    result, error = harness.run_experiment(config), None
                except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                    result, error = None, traceback.format_exc()
                calls.append(Call(index, time.perf_counter() - began, result, error, sink[-1]))
            cycles += 1
    return LoopRun(configs=configs, calls=calls, cycles=cycles)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    run_csv_sha256: list[str] = field(default_factory=list)  # one per config
    run_csv_bytes: list[int] = field(default_factory=list)

    @property
    def workload_sha256(self) -> str:
        """The run.csv digest itself for one config, else a digest of the per-config digests."""
        if len(self.run_csv_sha256) == 1:
            return self.run_csv_sha256[0]
        return hashlib.sha256(" ".join(self.run_csv_sha256).encode()).hexdigest()


def _record_problem(record: harness.RunRecord, enabled: tuple[str, ...]) -> str | None:
    if set(record.estimates) != set(enabled):
        return f"t={record.batch_index}: estimates {sorted(record.estimates)} != enabled {sorted(enabled)}"
    values = {"true_acc": record.true_accuracy, **record.estimates}
    for name, value in values.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"t={record.batch_index}: {name}={value!r} is not a finite value in [0, 1]"
    return None


def _round_trip_key(record: harness.RunRecord) -> tuple:
    return (record.batch_index, record.true_accuracy, record.estimates, record.reset, record.trigger)


def check_outputs(run: LoopRun, out_dir: Path) -> Checked:
    """Check every call; each experiment seed that raised or fails a check counts as failed.

    * every estimate and true accuracy is finite and lies in [0, 1];
    * later calls repeat the first call of the same config and seed exactly
      (warm caches and carried state must not change results);
    * per config, the first result, written by ``emit_outputs``, reads back
      through ``load_run_csv`` to the same t, true accuracy, estimates, reset
      and trigger.
    """
    checked = Checked()
    firsts = run.first_results()
    failed: set[tuple[int, int]] = set()  # (index into run.calls, seed)
    for i, call in enumerate(run.calls):
        config = run.configs[call.config_index]
        checked.attempted += len(config.seeds)
        if call.result is None:
            failed.update((i, seed) for seed in config.seeds)
            checked.problems.append(f"config {call.config_index}: {call.error}")
            continue
        reference = firsts[call.config_index]
        for outcome, first in zip(call.result.outcomes, reference.outcomes):
            label = f"config {call.config_index} seed {outcome.seed}"
            if outcome.error is not None:
                failed.add((i, outcome.seed))
                checked.problems.append(f"{label}: {outcome.error}")
                continue
            problems = [p for p in (_record_problem(r, config.estimators_enabled) for r in outcome.records) if p]
            if first.error is None and first.records != outcome.records:
                problems.append("records differ from the seed's first call")
            if problems:
                failed.add((i, outcome.seed))
                checked.problems.append(f"{label}: {problems[0]}")
    for index, result in enumerate(firsts):
        if result is None:
            continue
        problem = _emit_and_reload(result, out_dir / f"config{index}", checked)
        if problem is not None:
            checked.problems.append(f"config {index}: {problem}")
            first_call = next(i for i, c in enumerate(run.calls) if c.result is result)
            failed.update((first_call, o.seed) for o in result.outcomes if o.error is None)
    checked.failed = len(failed)
    return checked


def _emit_and_reload(result: harness.ExperimentResult, out_dir: Path, checked: Checked) -> str | None:
    try:
        harness.emit_outputs(result, out_dir)
        run_csv = (out_dir / "run.csv").read_bytes()
        reloaded = harness.load_run_csv(out_dir / "run.csv")
    except Exception:  # noqa: BLE001 - an output failure is a failed check, not a crash
        return f"emit_outputs or load_run_csv raised\n{traceback.format_exc()}"
    checked.run_csv_sha256.append(hashlib.sha256(run_csv).hexdigest())
    checked.run_csv_bytes.append(len(run_csv))
    written = [[_round_trip_key(r) for r in seed] for seed in result.records_by_seed]
    if [[_round_trip_key(r) for r in seed] for seed in reloaded] != written:
        return "run.csv does not read back to the records that were written"
    return None
