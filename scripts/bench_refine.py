"""Timing profile of the refinement pipeline.

Reports the cumulative wall time and final interval width after each
round, for both builtin pairs, plus the cost of one full-domain parity
computation at the base working precision.  With --spec FILE the pair of
a path spec file is timed instead of the builtin pairs;
`scripts/table_spec.json` holds two 300-row tables, written by
`bent_table_spec(300)` in `tests/gen.py`.  With --json the same figures,
the Python version and the CPU count are also written to a file.

Usage:
    python scripts/bench_refine.py --max-rounds 8 [--json BENCH_refine.json]
    python scripts/bench_refine.py --spec scripts/table_spec.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

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
    for name, (phi, psi) in pairs:
        f = extend(phi, Side.LOWER)
        g = extend(psi, Side.UPPER)
        start = time.perf_counter()
        parity = function_parity(f, g, full, full, n=5)
        base = time.perf_counter() - start
        print(f"{name}: base parity {parity} at n=5 in {base:.2f}s")
        print(f"{'rounds':>7} {'total s':>9} {'I width':>12}")
        runs = []
        for rounds in range(0, args.max_rounds + 1, 2):
            start = time.perf_counter()
            cert = refine_sequence(phi, psi, rounds)
            elapsed = time.perf_counter() - start
            width = float(cert.final.i.width())
            print(f"{rounds:>7} {elapsed:>9.2f} {width:>12.3e}")
            runs.append(
                {
                    "rounds": rounds,
                    "wall_s": round(elapsed, 3),
                    "i_width": width,
                    "j_width": float(cert.final.j.width()),
                }
            )
        print()
        report["pairs"][name] = {
            "base_parity": parity,
            "base_parity_s": round(base, 3),
            "runs": runs,
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
