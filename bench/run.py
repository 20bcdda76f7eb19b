"""Benchmark of the leibniz-deform CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cohomology,versal,massey} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics (norm_wall_s,
norm_cpu_s, setup_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics
of a traced run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in bench/corpus.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "leibniz_deform" / "cli.py").is_file():
        print(f"error: {root} holds no src/leibniz_deform; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import corpus
    import harness

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(corpus.WORKLOADS)}")
    runner = harness.Runner(root, args.seed)
    measure = harness.trace if args.trace else harness.measure
    outcomes, details = measure(runner, args.workload, args.seconds)
    result = harness.result_line(outcomes, details.pop("metrics"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(root),
        **details,
    }
    harness.save(root, f"{args.workload}-seed{args.seed}-trace{args.trace}", {**record, "result": result})
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
