"""Timing profile of the refinement pipeline.

Reports the cumulative time and final interval width after every
second round and after the last one, for both builtin pairs, plus the
cost of one full-domain parity computation at the base working
precision.  With --spec FILE the pair of
a path spec file is timed instead of the builtin pairs;
`scripts/table_spec.json` holds two 300-row tables, written by
`bent_table_spec(300)` in `tests/gen.py`.  With --from K (and --every S,
32 by default) each round up to --max-rounds is timed on its own
instead, as one shrink step pair (`refine._shrink_pair_certified`), and
the mean milliseconds per round are printed for each block of S rounds
from round K: how the cost of a round grows with depth.  With --json
the same figures, the Python version and the CPU count are also written
to a file.

Each figure is the median of CALLS calls, each timed by perfbench's
drift-corrected clock (`perfbench.clock.Clock.measure`): "ref s" is
seconds at the clock's reference speed, comparable across runs on a
host whose speed drifts, and "raw s" the wall seconds.  curvemeet is
imported from the path, so `PYTHONPATH=src` times this checkout and
another checkout's src times that one with the same script.

Usage:
    PYTHONPATH=src python scripts/bench_refine.py --max-rounds 8 [--json OUT.json]
    PYTHONPATH=src python scripts/bench_refine.py --spec scripts/table_spec.json
    PYTHONPATH=src python scripts/bench_refine.py --max-rounds 128 --from 1 --every 32
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from fractions import Fraction
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
from curvemeet.refine import _shrink_pair_certified
from perfbench.clock import Clock

CALLS = 5  # a single call's time spreads by up to half between runs


def _measure(clock: Clock, fn):
    """(fn(), median reference seconds, median raw seconds) over CALLS calls."""
    runs = [clock.measure(fn) for _ in range(CALLS)]
    return runs[0][0], median(r[1] for r in runs), median(r[2] for r in runs)


def _round_blocks(clock: Clock, phi, psi, first: int, every: int, last: int) -> list:
    """Per block of `every` rounds from round `first` to `last`: its
    first and last round and the mean reference and raw milliseconds of
    one round, each round timed on its own as `refine_sequence` runs it."""
    f, g = extend(phi, Side.LOWER), extend(psi, Side.UPPER)
    i = j = interval(-1, 2)
    alpha = Fraction(1)
    times = []
    for m in range(1, last + 1):
        (i, j, alpha), ref_s, raw_s = clock.measure(
            lambda: _shrink_pair_certified(f, g, i, j, m, alpha)
        )
        times.append((ref_s, raw_s))
    blocks = []
    for a in range(first, last + 1, every):
        block = times[a - 1 : min(a + every - 1, last)]
        ref_ms, raw_ms = (1e3 * sum(t) / len(block) for t in zip(*block))
        blocks.append((a, a + len(block) - 1, ref_ms, raw_ms))
    return blocks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rounds", type=int, default=8)
    parser.add_argument(
        "--spec", metavar="FILE", help="time this path spec's pair instead"
    )
    parser.add_argument(
        "--from", dest="first", type=int, metavar="K",
        help="time each round, per block of rounds from round K",
    )
    parser.add_argument("--every", type=int, default=32, metavar="S")
    parser.add_argument(
        "--json", metavar="PATH", help="also write the figures to this file"
    )
    args = parser.parse_args()
    if args.first is not None and not 1 <= args.first <= args.max_rounds:
        parser.error("--from must lie between 1 and --max-rounds")
    if args.every < 1:
        parser.error("--every must be positive")
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
        if args.first is not None:
            blocks = _round_blocks(
                clock, phi, psi, args.first, args.every, args.max_rounds
            )
            print(f"{name}: ms per round")
            print(f"{'rounds':>9} {'ref ms':>9} {'raw ms':>9}")
            for a, b, ref_ms, raw_ms in blocks:
                print(f"{f'{a}-{b}':>9} {ref_ms:>9.1f} {raw_ms:>9.1f}")
            print()
            report["pairs"][name] = {
                "blocks": [
                    {"first": a, "last": b, "ref_ms": round(r, 2), "raw_ms": round(w, 2)}
                    for a, b, r, w in blocks
                ]
            }
            continue
        f = extend(phi, Side.LOWER)
        g = extend(psi, Side.UPPER)
        parity, base, base_raw = _measure(
            clock, lambda: function_parity(f, g, full, full, n=5)
        )
        print(f"{name}: base parity {parity} at n=5 in {base:.3f} ref s", end=" ")
        print(f"({base_raw:.3f} raw s)")
        print(f"{'rounds':>7} {'ref s':>9} {'raw s':>9} {'I width':>12}")
        runs = []
        for rounds in sorted({*range(0, args.max_rounds + 1, 2), args.max_rounds}):
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
