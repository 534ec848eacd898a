"""Timing profile of the refinement pipeline.

Reports the cumulative time and final interval width after each round,
for both builtin pairs, plus the cost of one full-domain parity
computation at the base working precision.  With --spec FILE the pair of
a path spec file is timed instead of the builtin pairs;
`scripts/table_spec.json` holds two 300-row tables, written by
`bent_table_spec(300)` in `tests/gen.py`.  With --json the same figures,
the Python version and the CPU count are also written to a file.

Each figure is the median of CALLS calls, each timed by perfbench's
drift-corrected clock (`perfbench.clock.Clock.measure`): "ref s" is
seconds at the clock's reference speed, comparable across runs on a
host whose speed drifts, and "raw s" the wall seconds.  curvemeet is
imported from the path, so `PYTHONPATH=src` times this checkout and
another checkout's src times that one with the same script.

Usage:
    PYTHONPATH=src python scripts/bench_refine.py --max-rounds 8 [--json OUT.json]
    PYTHONPATH=src python scripts/bench_refine.py --spec scripts/table_spec.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

sys.path.append(str(Path(__file__).resolve().parent.parent))

from curvemeet import (
    Side,
    curved_pair,
    diagonal_pair,
    extend,
    function_parity,
    interval,
    refine_sequence,
)
from curvemeet.cli import load_path_spec
from perfbench.clock import Clock

CALLS = 5  # a single call's time spreads by up to half between runs


def _measure(clock: Clock, fn):
    """(fn(), median reference seconds, median raw seconds) over CALLS calls."""
    runs = [clock.measure(fn) for _ in range(CALLS)]
    return runs[0][0], median(r[1] for r in runs), median(r[2] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rounds", type=int, default=8)
    parser.add_argument(
        "--spec", metavar="FILE", help="time this path spec's pair instead"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the figures to this file"
    )
    args = parser.parse_args()
    if args.spec:
        pairs = [(Path(args.spec).name, load_path_spec(args.spec)[:2])]
    else:
        pairs = [("diagonals", diagonal_pair()), ("curved", curved_pair())]

    report: dict = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pairs": {},
    }
    full = interval(-1, 2)
    clock = Clock()
    for name, (phi, psi) in pairs:
        f = extend(phi, Side.LOWER)
        g = extend(psi, Side.UPPER)
        parity, base, base_raw = _measure(
            clock, lambda: function_parity(f, g, full, full, n=5)
        )
        print(f"{name}: base parity {parity} at n=5 in {base:.3f} ref s", end=" ")
        print(f"({base_raw:.3f} raw s)")
        print(f"{'rounds':>7} {'ref s':>9} {'raw s':>9} {'I width':>12}")
        runs = []
        for rounds in range(0, args.max_rounds + 1, 2):
            cert, ref_s, raw_s = _measure(clock, lambda: refine_sequence(phi, psi, rounds))
            width = float(cert.final.i.width())
            print(f"{rounds:>7} {ref_s:>9.3f} {raw_s:>9.3f} {width:>12.3e}")
            runs.append(
                {
                    "rounds": rounds,
                    "ref_s": round(ref_s, 4),
                    "raw_s": round(raw_s, 4),
                    "i_width": width,
                    "j_width": float(cert.final.j.width()),
                }
            )
        print()
        report["pairs"][name] = {
            "base_parity": parity,
            "base_parity_ref_s": round(base, 4),
            "base_parity_raw_s": round(base_raw, 4),
            "runs": runs,
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
