"""cProfile of one benchmark round, by self time.

Builds the round that perfbench would run for WORKLOAD and seed N, runs
it once to warm up (imports, caches, first allocations), then profiles a
second run of it and prints the K functions with the largest self time.
The round and its answer checks come from perfbench/workloads.py, which
this script only imports.  The round's timing clock is replaced by a bare
one, so that perfbench's calibration loop stays out of the profile.

Usage, from the root of a checkout:
    python3 scripts/profile_round.py curved --seed 11 [--top 25]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import curvemeet  # noqa: E402
import curvemeet.cli  # noqa: E402,F401  (the ball round emits a certificate)
from perfbench import workloads  # noqa: E402


class BareClock:
    """A `perfbench.clock.Clock` stand-in that only calls fn."""

    def measure(self, fn):
        return fn(), 0.0, 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.PAIRS_USED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    pairs = workloads.make_pairs()
    queries = workloads.make_windows(args.workload, args.seed, pairs)
    state = workloads.State(curvemeet, args.workload, pairs, queries)
    state.clock = BareClock()
    workloads.run_round(state, workloads.Tally())
    tally = workloads.Tally()
    profile = cProfile.Profile()
    profile.runcall(workloads.run_round, state, tally)
    for line in tally.errors + tally.wrong:
        print(f"failure: {line}", file=sys.stderr)
    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(args.top)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
