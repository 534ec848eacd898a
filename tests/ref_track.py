"""Rational references for the integer vertex placement in `track.py`.

`spiral_search` and `perturb_to_separated` work on integer numerators
over one denominator.  These are the `Fraction` forms they replaced: a
spiral over `Point` candidates, and a perturbation that tests each
candidate with `Line.contains` and `orient` against every spanned line
and every vertex of the other tracks.  Tests require equal results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from curvemeet import Track
from curvemeet.errors import InvariantViolation
from curvemeet.exact_geom import Point, orient
from curvemeet.track import SPIRAL_LEVELS, line_set, vertex_set


def _ring_offsets(r: int) -> list[tuple[int, int]]:
    """The grid offsets at Chebyshev distance r, counterclockwise from
    (r, 0)."""
    if r == 0:
        return [(0, 0)]
    out = [(r, t) for t in range(0, r)]
    out += [(t, r) for t in range(r, -r, -1)]
    out += [(-r, t) for t in range(r, -r, -1)]
    out += [(t, -r) for t in range(-r, r)]
    out += [(r, t) for t in range(-r, 0)]
    return out


def ref_spiral_search(
    center: Point,
    pitch: Fraction,
    sq_budget: Fraction,
    accept: Callable[[Point], bool],
) -> Point:
    """First acceptable point of a dyadic grid spiralling out from
    center: square rings in a fixed order, squared offset below
    sq_budget, the pitch halved after each exhausted ring scan."""
    if pitch <= 0 or sq_budget <= 0:
        raise ValueError("pitch and budget must be positive")
    for level in range(SPIRAL_LEVELS):
        if level:
            pitch = pitch / 2
        limit = Fraction(sq_budget) / (pitch * pitch)
        r = 0
        while True:
            in_budget = False
            for i, j in _ring_offsets(r):
                if i * i + j * j < limit:
                    in_budget = True
                    cand = Point(center.x + i * pitch, center.y + j * pitch)
                    if accept(cand):
                        return cand
            if r > 0 and not in_budget:
                break
            r += 1
    raise InvariantViolation("spiral search exhausted twelve pitch refinements")


def ref_separated_points(bases, others, pitch, sq_budget) -> list[Point]:
    """Each base, or the first point of its spiral, that differs from the
    point before it, lies on no spanned line of a track in others, and
    spans with the point before it a line through no vertex of one."""
    avoid_lines = frozenset().union(*map(line_set, others))
    avoid_points = frozenset().union(*map(vertex_set, others))
    out: list[Point] = []

    def acceptable(cand: Point) -> bool:
        if any(line.contains(cand) for line in avoid_lines):
            return False
        if out:
            prev = out[-1]
            if cand == prev:
                return False
            if any(orient(prev, cand, v) == 0 for v in avoid_points):
                return False
        return True

    for base in bases:
        out.append(ref_spiral_search(base, pitch, sq_budget, acceptable))
    return out


def ref_perturb_to_separated(
    p: Track, q: Track, qprime: Track, delta: Fraction
) -> Track:
    """p's vertices moved less than delta, by the spiral of pitch delta/8,
    until weakly separated from q and qprime."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    points = ref_separated_points(p.points, (q, qprime), delta / 8, delta * delta)
    return Track(tuple(zip(p.params, points)))
