"""Benchmark of the donorpair experiments, run end to end through
`donorpair.experiments.run` from the sources under src/.

    python3 benchmarks/run.py --workload phase_map_gate --seed 0 --seconds 15 --trace 0

--trace 0 runs the experiment untraced and reports the end-to-end metrics
named in BENCHMARK.json: run_s (median wall time of one run after a warm-up,
scaled to a reference host speed by a calibration kernel, see bench.py),
work_per_s, setup_s (median of cold starts) and peak_rss_mb. --trace 1
reports the per-layer metrics: layer timings taken from outside, and self
times and call counts from a traced run. Every run's outputs are checked;
a run that raises or fails the check counts in `failed`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON report: sample
counts and quartiles, the error ratio, the captured warnings and the
environment. Outputs go to .bench_out/ and are removed at the end, except the
traced run's spans.

Run the benchmark's own tests with `python3 -m pytest benchmarks/tests`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "donorpair" / "__init__.py").is_file():
        print(f"error: donorpair sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # load is generated by one process; BLAS may use no more threads than cores
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(ROOT / "src"))

    import bench

    measure = bench.per_layer if args.trace else bench.end_to_end
    line, report = measure(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
