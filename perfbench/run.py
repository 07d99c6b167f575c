"""aetta benchmark: one workload, closed loop, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload continual --seed 0 --seconds 20 --trace 0

Each run
1. sets up cold: it empties the source-model cache and fills it with
   ``streams.prepared_task`` for every experiment seed of the workload;
2. runs ``harness.run_experiment`` warm over the workload's configs in a closed
   loop for ``--seconds`` (``loop.closed_loop``). Every cycle repeats the same
   batches, and the latency and throughput metrics take each batch's fastest
   repeat (``bench.best_batch_seconds``);
3. checks the outputs (``loop.check_outputs``);
4. sets up cold once more (``setup_s`` is the faster of the two set-ups) and
   measures the peak memory of one more, untimed call per config with
   ``tracemalloc``.

With ``--trace 1`` the first set-up is traced and the second skipped; after the
loop one more cycle runs with every layer's public calls wrapped
(``tracing.Tracer``). The run checks that the traced ``run.csv`` is bitwise the
untraced one and reports per-layer metrics instead of end-to-end ones. Spans
and a full report go to ``perfbench/out/``. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (experiment seeds run)
and ``metrics``. Without the program's sources next to ``perfbench/`` the run
fails with exit code 2 and prints no result.

``--seed n`` selects experiment seeds 3n, 3n+1 and 3n+2 (``workloads.run_seeds``).
BLAS is pinned to one thread: the loop's largest matrix product is 1000 x 64 by
64 x 64, where a second thread costs more than it saves, and one thread is
steadier on a shared machine.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="continual, collapse-recover or sweep-ensemble")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed n: experiment seeds 3n..3n+2")
    parser.add_argument("--seconds", type=float, default=20.0, help="closed-loop time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "aetta" / "__init__.py").is_file():
        print(f"perfbench: no aetta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    # before numpy loads, which happens in main()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
