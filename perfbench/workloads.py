"""The benchmark's workloads.

A workload is a cycle of experiment configs that the closed loop runs back to
back, each through ``harness.run_experiment`` over the same experiment seeds.
Each workload mirrors one CLI path and loads a different part of the program:

* ``continual``: ``aetta run`` with the ``ExperimentConfig`` defaults. Every
  estimator runs on every batch, so work is spread over all five of them and
  repeated deterministic forwards of one model on one batch show here.
* ``collapse-recover``: the rollback arm of ``aetta recover-demo``. TENT at the
  collapse learning rate with AETTA-triggered resets and no baseline
  estimator, so adaptation, rollback and clones dominate the stream.
* ``sweep-ensemble``: the ensemble-size arm of ``aetta sweep`` on 256-row
  batches with AETTA alone, so dropout forwards dominate and grow with N. It
  runs two batches per corruption segment where the CLI runs four.
"""

from __future__ import annotations

import dataclasses

from aetta import harness
from aetta.tta import RecoveryPolicy

SEEDS_PER_RUN = 3
SWEEP_ENSEMBLE_SIZES = (1, 5, 10, 15, 20)
SWEEP_BATCH_SIZE = 256
# two batches per corruption segment instead of four: the same schedule in 30
# batches per seed, so a cycle of all five configs takes about 5 s and a run
# repeats every batch several times
SWEEP_BATCHES_PER_SEGMENT = 2


def run_seeds(seed: int) -> tuple[int, ...]:
    """Experiment seeds for benchmark seed ``seed``: 3n, 3n+1, 3n+2.

    Seed 0 gives (0, 1, 2), the CLI's default seeds; distinct benchmark seeds
    never share an experiment seed, so a claim can be re-checked on unseen ones.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return tuple(SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN))


def continual(seeds: tuple[int, ...]) -> tuple[harness.ExperimentConfig, ...]:
    return (harness.ExperimentConfig(seeds=seeds),)


def collapse_recover(seeds: tuple[int, ...]) -> tuple[harness.ExperimentConfig, ...]:
    config = harness.collapse_preset(harness.ExperimentConfig(seeds=seeds))
    return (
        dataclasses.replace(
            config, recovery=RecoveryPolicy(kind="aetta_reset"), estimators_enabled=("aetta",)
        ),
    )


def sweep_ensemble(seeds: tuple[int, ...]) -> tuple[harness.ExperimentConfig, ...]:
    base = harness.ExperimentConfig(
        seeds=seeds, estimators_enabled=("aetta",), batch_size=SWEEP_BATCH_SIZE,
        batches_per_segment=SWEEP_BATCHES_PER_SEGMENT,
    )
    return tuple(
        dataclasses.replace(base, estimator=dataclasses.replace(base.estimator, n_dropout=n))
        for n in SWEEP_ENSEMBLE_SIZES
    )


WORKLOADS = {
    "continual": continual,
    "collapse-recover": collapse_recover,
    "sweep-ensemble": sweep_ensemble,
}
