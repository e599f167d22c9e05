"""Every workload, untraced and traced, then the baseline cross-check.

    python3 perfbench/report.py --seed 1 --seconds 20

prints run.py's report for each workload (end-to-end metrics with their
units and counts, error_rate, the stdout digest, and, traced, the
per-layer metrics and hotspots), then times the three baseline commands
below as the median of three fresh processes each, next to the time
recorded for them in ROADMAP.md (Python 3.11, 2 cores, one run each).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from functools import partial

import oracle
import run
import workloads
from workloads import Command

BASELINES = (
    (Command(("sample", "--n", "2000", "--count", "20", "--seed", "1"), 0,
             partial(oracle.check_paths, fmt="text", n=2000, k=0, count=20)), 2.8),
    (Command(("count", "--n", "200"), 0, partial(oracle.check_counts, fmt="text", n=200)), 1.2),
    (Command(("series", "--order", "60"), 0, partial(oracle.check_series, fmt="text", n=60)), 0.7),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    if not (run.SRC / "chungfeller" / "__main__.py").is_file():
        print(f"error: no chungfeller package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    for workload in workloads.ROUNDS:
        for trace, measure in ((0, run.measure), (1, run.measure_traced)):
            runner, metrics, facts = measure(workload, args.seed, args.seconds)
            run.report(workload, args.seed, trace, runner, metrics, facts)
    runner = run.Runner()
    print("baselines (median of 3 fresh processes; ROADMAP value)")
    for command, recorded in BASELINES:
        seconds = statistics.median(runner.execute(command).wall_s for _ in range(3))
        print(f"  {' '.join(command.args):40s} {seconds:7.3f} s  (ROADMAP {recorded} s)")
    failures = runner.failures()
    for failure in failures:
        print(f"error: {' '.join(failure.command.args)}: {failure.error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
