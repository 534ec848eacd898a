"""Polygon tracks: finite parameter/vertex lists evaluated piecewise linearly.

A track is the computational stand-in for a curve segment: strictly
increasing rational parameters, consecutive vertices distinct.  Weak
separation of two tracks (no vertex of one on any segment-spanning line
of the other) is the precondition that makes crossing counting a pure
sign computation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from ._fastgeom import common_scale, weakly_separated_ints
from .errors import GridMismatch, InvariantViolation, OutOfDomain
from .exact_geom import Line, Point, orient, pt, rat

LineSet = frozenset


@dataclass(frozen=True)
class Track:
    entries: tuple[tuple[Fraction, Point], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 2:
            raise ValueError("a track needs at least two vertices")
        for (s0, x0), (s1, x1) in zip(self.entries, self.entries[1:]):
            if s1 <= s0:
                raise ValueError("track parameters must increase strictly")
            if x0 == x1:
                raise ValueError("consecutive track vertices must differ")

    @property
    def params(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(x for _, x in self.entries)

    def domain(self) -> tuple[Fraction, Fraction]:
        return self.entries[0][0], self.entries[-1][0]

    def __len__(self) -> int:
        return len(self.entries)


def make_track(raw: Iterable[tuple] ) -> Track:
    """Build a Track from (s, (x, y)) or (s, Point) pairs."""
    entries = []
    for s, p in raw:
        point = p if isinstance(p, Point) else pt(p[0], p[1])
        entries.append((rat(s), point))
    return Track(tuple(entries))


def eval_track(p: Track, s: Fraction) -> Point:
    """Value of the polygon path of p at parameter s (exact)."""
    params = p.params
    if s < params[0] or s > params[-1]:
        raise OutOfDomain(f"parameter {s} outside [{params[0]}, {params[-1]}]")
    i = bisect_right(params, s) - 1
    if i == len(params) - 1:
        return p.entries[-1][1]
    s0, x0 = p.entries[i]
    s1, x1 = p.entries[i + 1]
    t = (s - s0) / (s1 - s0)
    return x0 + (x1 - x0).scale(t)


def vertex_set(p: Track) -> frozenset[Point]:
    return frozenset(p.points)


def line_set(p: Track) -> frozenset[Line]:
    """Lines spanned by consecutive vertex pairs."""
    pts = p.points
    return frozenset(Line.through(a, b) for a, b in zip(pts, pts[1:]))


def full_line_set(p: Track) -> frozenset[Line]:
    """Lines spanned by every pair of distinct vertices."""
    pts = p.points
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j]:
                out.add(Line.through(pts[i], pts[j]))
    return frozenset(out)


def weakly_separated(p: Track, q: Track) -> bool:
    """No vertex of either track lies on a spanned line of the other.

    Both tracks are scaled to one integer grid.  Each distinct spanned
    line (a collinear run counts once) stabs the other track's
    `BoxLevels`: box tests only prune, and the integer equality
    a*x + b*y == c still decides every incidence.  A line costs
    O(log N) box tests plus the vertices it passes close to, so the whole
    test is about O((|p| + |q|) log) for tracks that do not run along
    each other's lines, instead of O(|p| * |q|).
    """
    (pi, qi), _scale = common_scale(p.points, q.points)
    return weakly_separated_ints(pi, qi)


def sup_track_distance(p: Track, pbar: Track) -> Fraction:
    """Squared sup-distance of two polygon paths on a shared grid.

    By convexity the sup over all parameters is attained at a vertex, so
    the tracks must carry identical parameter sequences.
    """
    if p.params != pbar.params:
        raise GridMismatch("tracks do not share a parameter grid")
    return max((x - y).sq_norm() for x, y in zip(p.points, pbar.points))


def _ring_offsets(r: int) -> list[tuple[int, int]]:
    if r == 0:
        return [(0, 0)]
    out = [(r, t) for t in range(0, r)]
    out += [(t, r) for t in range(r, -r, -1)]
    out += [(-r, t) for t in range(r, -r, -1)]
    out += [(t, -r) for t in range(-r, r)]
    out += [(r, t) for t in range(-r, 0)]
    return out


def spiral_search(
    center: Point,
    pitch: Fraction,
    sq_budget: Fraction,
    accept: Callable[[Point], bool],
) -> Point:
    """First acceptable point of a dyadic grid spiralling out from center.

    Scans square rings in a fixed order; every candidate keeps squared
    offset below sq_budget.  If no grid point within budget is accepted
    the pitch is halved and the scan restarts, so a candidate is found
    whenever the rejected set is a finite union of lines and points.
    """
    if pitch <= 0 or sq_budget <= 0:
        raise ValueError("pitch and budget must be positive")
    for _ in range(12):
        limit = sq_budget / (pitch * pitch)
        lim_num, lim_den = limit.numerator, limit.denominator
        r = 0
        while True:
            in_budget = False
            for i, j in _ring_offsets(r):
                if (i * i + j * j) * lim_den < lim_num:
                    in_budget = True
                    cand = Point(center.x + i * pitch, center.y + j * pitch)
                    if accept(cand):
                        return cand
            if r > 0 and not in_budget:
                break
            r += 1
        pitch = pitch / 2
    raise InvariantViolation("spiral search exhausted twelve pitch refinements")


def perturb_to_separated(
    p: Track, q: Track, qprime: Track, delta: Fraction
) -> Track:
    """Move each vertex of p less than delta so the result is weakly
    separated from both q and qprime.

    Vertices are fixed one by one: a candidate must avoid every spanned
    line of q and qprime, differ from its predecessor, and span with it a
    line through no vertex of q or qprime.  A track that already
    satisfies the predicates is returned unchanged (the zero offset is
    tried first).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    avoid_lines = line_set(q) | line_set(qprime)
    avoid_points = vertex_set(q) | vertex_set(qprime)
    sq_budget = delta * delta
    pitch = delta / 8

    new_points: list[Point] = []

    def acceptable(cand: Point) -> bool:
        if any(line.contains(cand) for line in avoid_lines):
            return False
        if new_points:
            prev = new_points[-1]
            if cand == prev:
                return False
            if any(orient(prev, cand, v) == 0 for v in avoid_points):
                return False
        return True

    for _, x in p.entries:
        new_points.append(spiral_search(x, pitch, sq_budget, acceptable))
    return Track(tuple((s, y) for (s, _), y in zip(p.entries, new_points)))
