"""Polygon tracks: finite parameter/vertex lists evaluated piecewise linearly.

A track is the computational stand-in for a curve segment: strictly
increasing rational parameters, consecutive vertices distinct.  Weak
separation of two tracks (no vertex of one on any segment-spanning line
of the other) is the precondition that makes crossing counting a pure
sign computation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ._fastgeom import (
    BoxLevels,
    IntPoint,
    canonical_lines,
    over_lcm,
    points_over_lcm,
    rescale,
)
from .errors import GridMismatch, InvariantViolation, OutOfDomain
from .exact_geom import Line, Point, pt, rat


# pitches a spiral search tries: the given one and eleven halvings
SPIRAL_LEVELS = 12


class Track:
    """A polygon track held in integers over two denominators.

    Parameter k is snums[k] / sden and vertex k is verts[k] / vden, so
    the sign tests, distance queries and crossing sweeps read the
    integers directly.  `entries`, `params` and `points` are `Fraction`
    views built on demand, for tests and the API.

    `Track(entries)` checks that the parameters increase strictly and
    that consecutive vertices differ.  Tracks built by the approximation
    code hold both by construction and come through `from_ints`, which
    checks nothing.
    """

    __slots__ = ("sden", "snums", "vden", "verts")

    def __init__(self, entries: Iterable[tuple[Fraction, Point]]):
        entries = tuple(entries)
        if len(entries) < 2:
            raise ValueError("a track needs at least two vertices")
        for (s0, x0), (s1, x1) in zip(entries, entries[1:]):
            if s1 <= s0:
                raise ValueError("track parameters must increase strictly")
            if x0 == x1:
                raise ValueError("consecutive track vertices must differ")
        self.sden, self.snums = over_lcm([s for s, _ in entries])
        self.vden, self.verts = points_over_lcm([z for _, z in entries])

    @classmethod
    def from_ints(
        cls, sden: int, snums: Sequence[int], vden: int, verts: Sequence[IntPoint]
    ) -> "Track":
        """A track from integer forms that are valid by construction."""
        track = cls.__new__(cls)
        track.sden, track.snums, track.vden, track.verts = sden, snums, vden, verts
        return track

    def param(self, k: int) -> Fraction:
        return Fraction(self.snums[k], self.sden)

    def point(self, k: int) -> Point:
        x, y = self.verts[k]
        return Point(Fraction(x, self.vden), Fraction(y, self.vden))

    @property
    def params(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.sden) for s in self.snums)

    @property
    def points(self) -> tuple[Point, ...]:
        d = self.vden
        return tuple(Point(Fraction(x, d), Fraction(y, d)) for x, y in self.verts)

    @property
    def entries(self) -> tuple[tuple[Fraction, Point], ...]:
        return tuple(zip(self.params, self.points))

    def verts_over(self, den: int) -> Sequence[IntPoint]:
        """The vertex numerators over den, a multiple of vden."""
        return rescale(self.verts, den // self.vden)

    def domain(self) -> tuple[Fraction, Fraction]:
        return self.param(0), self.param(-1)

    def __len__(self) -> int:
        return len(self.snums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Track):
            return NotImplemented
        if self.sden == other.sden and self.vden == other.vden:
            return self.snums == other.snums and self.verts == other.verts
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Track(entries={self.entries!r})"


def common_verts(
    p: Track, q: Track
) -> tuple[Sequence[IntPoint], Sequence[IntPoint], int]:
    """The vertices of both tracks over one common denominator."""
    den = math.lcm(p.vden, q.vden)
    return p.verts_over(den), q.verts_over(den), den


def make_track(raw: Iterable[tuple]) -> Track:
    """Build a Track from (s, (x, y)) or (s, Point) pairs."""
    entries = []
    for s, p in raw:
        point = p if isinstance(p, Point) else pt(p[0], p[1])
        entries.append((rat(s), point))
    return Track(tuple(entries))


def eval_track(p: Track, s: Fraction) -> Point:
    """Value of the polygon path of p at parameter s (exact)."""
    s = rat(s)
    a, b = s.numerator, s.denominator
    snums, sden = p.snums, p.sden
    q = a * sden
    if q < snums[0] * b or q > snums[-1] * b:
        lo, hi = p.domain()
        raise OutOfDomain(f"parameter {s} outside [{lo}, {hi}]")
    # the numerators are integers, so snums[k] <= q/b iff snums[k] <= q // b
    i = bisect_right(snums, q // b) - 1
    if i == len(snums) - 1:
        return p.point(i)
    # at t = (q - s0*b) / (b*(s1 - s0)) along the segment
    r = q - snums[i] * b
    w = b * (snums[i + 1] - snums[i])
    (x0, y0), (x1, y1) = p.verts[i], p.verts[i + 1]
    den = p.vden * w
    return Point(
        Fraction(x0 * w + (x1 - x0) * r, den), Fraction(y0 * w + (y1 - y0) * r, den)
    )


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
    """No vertex of either track lies on a spanned line of the other:
    on one integer grid every vertex of q, in order, passes `_vertex_test`
    against p with reach 0 (check A keeps the q-vertices off the lines of
    p, check B the p-vertices off those of q)."""
    pi, qi, _den = common_verts(p, q)
    accept = _vertex_test(qi, (pi,), 0)
    return all(accept(k, z, qi[k - 1] if k else None) for k, z in enumerate(qi))


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
    center: IntPoint,
    pitch: int,
    sq_budget: int,
    accept: Callable[[IntPoint], bool],
) -> IntPoint:
    """First acceptable point of an integer grid spiralling out from center.

    Scans square rings of the given pitch in a fixed order; every
    candidate keeps squared offset below sq_budget.  If no grid point
    within budget is accepted the pitch is halved and the scan restarts,
    so a candidate is found whenever the rejected set is a finite union
    of lines and points.  The pitch must be a multiple of 2^11, so that
    every halving stays on the integers.
    """
    if pitch <= 0 or sq_budget <= 0:
        raise ValueError("pitch and budget must be positive")
    if pitch % (1 << (SPIRAL_LEVELS - 1)):
        raise ValueError("the pitch must be a multiple of 2^11")
    cx, cy = center
    for _level in range(SPIRAL_LEVELS):
        sq_pitch = pitch * pitch
        r = 0
        while True:
            in_budget = False
            for i, j in _ring_offsets(r):
                if (i * i + j * j) * sq_pitch < sq_budget:
                    in_budget = True
                    cand = (cx + i * pitch, cy + j * pitch)
                    if accept(cand):
                        return cand
            if r > 0 and not in_budget:
                break
            r += 1
        pitch >>= 1
    raise InvariantViolation("spiral search exhausted twelve pitch refinements")


def _vertex_test(
    bases: Sequence[IntPoint], others: Sequence[Sequence[IntPoint]], reach: int
) -> Callable[[int, IntPoint, IntPoint | None], bool]:
    """The one weak-separation predicate, accept(k, cand, prev), for a
    candidate at most reach per axis from bases[k] after the vertex prev
    (None for the first): cand differs from prev, (A) lies on no line
    spanned by consecutive points of a polyline in others, and (B) spans
    with prev a line through no point of one.

    The others' distinct lines stab the squares of half-width reach
    around the bases for (A), each line of (B) the others' box levels;
    box tests only prune and a*x + b*y == c decides every incidence, at
    O(log N) box tests per line plus the points each passes close to.
    """
    points = [z for pts in others for z in pts]
    near_lines: dict[int, list[tuple[int, int, int]]] = {}
    if points:
        other_boxes, base_boxes = BoxLevels(points), BoxLevels(bases)
        for line in set().union(*map(canonical_lines, others)):
            for k in base_boxes.stab(*line, reach):
                near_lines.setdefault(k, []).append(line)

    # the last lines that passed and failed (B); 0 = 1 holds nowhere
    passed, failed = [0, 0, 1], [0, 0, 1]

    def accept(k: int, cand: IntPoint, prev: IntPoint | None) -> bool:
        if cand == prev:
            return False
        x, y = cand
        for a, b, c in near_lines.get(k, ()):
            if a * x + b * y == c:
                return False
        if prev is None or not points:
            return True
        x0, y0 = prev
        a, b, c = passed
        if a * x + b * y == c == a * x0 + b * y0:
            return True  # the line that passed, along a collinear run
        a, b, c = failed
        if a * x + b * y == c == a * x0 + b * y0:
            return False  # the line that failed, met again
        a, b = y - y0, x0 - x
        c = a * x0 + b * y0
        if other_boxes.stab(a, b, c, 0):
            failed[:] = a, b, c
            return False
        passed[:] = a, b, c
        return True

    return accept


def separated_vertices(
    bases: Sequence[IntPoint],
    others: Sequence[Sequence[IntPoint]],
    pitch: int,
    sq_budget: int,
) -> list[IntPoint]:
    """Vertices near the bases, weakly separated from every polyline in
    others; all points are integer numerators over one denominator.

    Vertex k keeps bases[k] if `_vertex_test` accepts it and otherwise
    takes the first accepted point of `spiral_search(bases[k], pitch,
    sq_budget)`, whose candidates lie within isqrt(sq_budget) per axis of
    the base.
    """
    accept = _vertex_test(bases, others, math.isqrt(sq_budget))
    out: list[IntPoint] = []
    prev = None
    for k, base in enumerate(bases):
        # the unmoved base is almost always acceptable; the spiral
        # machinery is only paid for on rejection
        if not accept(k, base, prev):
            base = spiral_search(
                base, pitch, sq_budget, lambda c, k=k, p=prev: accept(k, c, p)
            )
        out.append(base)
        prev = base
    return out


def perturb_to_separated(
    p: Track, q: Track, qprime: Track, delta: Fraction
) -> Track:
    """Move each vertex of p less than delta so the result is weakly
    separated from both q and qprime.

    The vertices are placed by `separated_vertices` with the spiral of
    pitch delta/8 and budget delta^2, on one integer grid holding p, q
    and qprime whose denominator is a multiple of 2^14 times delta's, so
    the pitch and its halvings are integers.  A track that already
    satisfies the predicates is returned unchanged (the zero offset is
    tried first).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    den = math.lcm(p.vden, q.vden, qprime.vden, delta.denominator << 14)
    radius = delta.numerator * (den // delta.denominator)  # delta over den
    others = (q.verts_over(den), qprime.verts_over(den))
    verts = separated_vertices(p.verts_over(den), others, radius >> 3, radius**2)
    return Track.from_ints(p.sden, p.snums, den, verts)
