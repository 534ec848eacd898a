"""Crossing-parity survey over a grid of parameter windows.

Splits the extended domain [-1, 2] of each curve into equal cells and
prints the crossing parity of every (I-cell, J-cell) combination:
'1' odd, '.' even, '?' when the clearance between the window images
could not be certified positive within the effort budget (typically
because a window endpoint value lies on or near the other image).

Rows sum, mod 2, to the parity of the full row window: the odd cells
of each row trace where the crossing can hide.

Usage:
    python scripts/parity_grid.py --pair diagonals --cells 5
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from curvemeet import (
    Side,
    curved_pair,
    diagonal_pair,
    extend,
    function_parity,
    interval,
)
from curvemeet.errors import EffortExhausted
from curvemeet.exact_geom import Interval

PAIRS = {"diagonals": diagonal_pair, "curved": curved_pair}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", choices=sorted(PAIRS), default="diagonals")
    # an odd cell count keeps the builtin crossings off cell corners
    parser.add_argument("--cells", type=int, default=5)
    parser.add_argument(
        "--effort",
        type=int,
        default=12,
        help="maximum clearance-search precision per cell",
    )
    args = parser.parse_args()

    phi, psi = PAIRS[args.pair]()
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    full = interval(-1, 2)
    step = full.width() / args.cells
    cells = [
        Interval(full.lo + k * step, full.lo + (k + 1) * step)
        for k in range(args.cells)
    ]

    print(f"pair={args.pair}, {args.cells}x{args.cells} cells over [-1, 2]")
    width = 18
    print(" " * width + "".join(f"{f'J{k}':>4}" for k in range(args.cells)))
    for ki, i_cell in enumerate(cells):
        row = []
        for j_cell in cells:
            try:
                bit = function_parity(f, g, i_cell, j_cell, args.effort)
                row.append("1" if bit else ".")
            except EffortExhausted:
                row.append("?")
        label = f"I{ki} [{float(i_cell.lo):+.2f},{float(i_cell.hi):+.2f}]"
        print(f"{label:<{width}}" + "".join(f"{ch:>4}" for ch in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
