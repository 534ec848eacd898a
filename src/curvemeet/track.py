"""The paper's route to crossing parity: weakly separated track pairs.

The paper shows that crossing parity is well defined by building, for
each curve, an n-approximation track (gaps below 2^-modulus(n), vertices
within 2^-n of the curve) and placing the second track's vertices so
that the pair is weakly separated: no vertex of either track lies on a
line spanned by consecutive vertices of the other.  On such a pair every
incidence is a transversal interior crossing, and counting crossings is
a pure sign computation (`crossing_count`).

The pipeline counts the base-point polylines under a symbolic
translation instead (`parity.function_parity`) and never imports this
module; tests check that the two parities agree.  The package loads it
on first use of one of its names (`curvemeet.track`,
`curvemeet.n_approximation_pair`, ...).

Here live the integer `Track`, the track builders (`n_approximation`,
`n_approximation_pair`, `perturb_to_separated`) with the optional random
jitter of their base points (`_jittered_base_points`), the vertex
placement they share (`separated_vertices`: the base point, else the
first point of a `spiral_search` around it), the one weak-separation
predicate (`_vertex_test`, also behind `weakly_separated`) with the line
kernels it stands on (`canonical_lines` and `stab`, a query on a
`BoxLevels`), and the `Fraction` views that tests compare against
(`eval_track`, `sup_track_distance` and the vertex and line sets).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ._fastgeom import (
    BoxLevels,
    IntPoint,
    over_lcm,
    pair_over_lcm,
    points_over_lcm,
    rescale,
)
from .errors import GridMismatch, InvariantViolation, NotSeparated, OutOfDomain
from .exact_geom import Interval, Point, pt, rat
from .parity import CrossingReport, _sweep
from .paths import PathOracle, _base_points
from .segments import Line


# pitches a spiral search tries: the given one and eleven halvings
SPIRAL_LEVELS = 12
_JITTER_SPAN = 32  # random vertex offsets stay within 32 pitches per axis


class Track:
    """A polygon track held in integers, the operand of `crossing_count`.

    Parameter k is snums[k] / sden and vertex k is verts[k] / vden, the
    forms of `over_lcm` and `points_over_lcm`, so the sign tests and the
    sweep read the integers directly.  `entries`, `params` and `points`
    are `Fraction` views built on demand, for tests and the API.

    `Track(entries)` checks that the parameters increase strictly and
    that consecutive vertices differ.  The separated tracks hold both by
    construction and come through `from_ints`, which checks nothing.
    The crossing sweep (`parity._sweep`) reads the four integer fields
    alone, as it reads those of the pipeline's base-point polylines.
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
    return pair_over_lcm(p.vden, p.verts, q.vden, q.verts)


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


def crossing_count(p: Track, q: Track) -> CrossingReport:
    """Count and locate the crossings of two tracks from a caller, which
    must be weakly separated (`weakly_separated`), else NotSeparated.
    On such a pair the symbolic translation of `parity._sweep` changes
    no sign, so its report is the plain one."""
    if not weakly_separated(p, q):
        raise NotSeparated("tracks are not weakly separated")
    return _sweep(p, q)


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


def canonical_lines(ipts: Sequence[IntPoint]) -> set[tuple[int, int, int]]:
    """Lines a*x + b*y = c spanned by consecutive points (which must
    differ), each once: gcd(a, b, c) = 1 and (a, b) lexicographically
    positive, so a collinear run yields one line."""
    out = set()
    for (x0, y0), (x1, y1) in zip(ipts, ipts[1:]):
        a, b = y1 - y0, x0 - x1
        c = a * x0 + b * y0
        g = math.gcd(a, b, c)
        if a < 0 or (a == 0 and b < 0):
            g = -g
        out.add((a // g, b // g, c // g))
    return out


def stab(boxes: BoxLevels, a: int, b: int, c: int, pad: int) -> list[int]:
    """Indices of the points (x, y) of a box hierarchy whose square
    [x-pad, x+pad] x [y-pad, y+pad] meets the line a*x + b*y = c, in
    index order.

    Since a*x + b*y ranges over +-(|a|+|b|)*pad on such a square, a
    point qualifies iff |a*x + b*y - c| <= (|a|+|b|)*pad; with pad 0
    that is exact incidence.  Cost: two corner tests per box on the
    root-to-leaf paths of the boxes the line passes near, plus one
    test per point of the leaf runs reached.
    """
    reach = (abs(a) + abs(b)) * pad
    lo, hi = c - reach, c + reach
    # box corners minimising and maximising a*x + b*y
    x_min, x_max = (0, 1) if a >= 0 else (1, 0)
    y_min, y_max = (2, 3) if b >= 0 else (3, 2)
    levels = boxes.levels
    root = levels[0][0]
    if not (
        a * root[x_min] + b * root[y_min] <= hi
        and a * root[x_max] + b * root[y_max] >= lo
    ):
        return []
    live = [0]
    for level in levels[1:]:
        n_boxes = len(level)
        live = [
            k
            for i in live
            for k in (2 * i, 2 * i + 1)
            if k < n_boxes
            and a * level[k][x_min] + b * level[k][y_min] <= hi
            and a * level[k][x_max] + b * level[k][y_max] >= lo
        ]
        if not live:
            return []
    # leaf run i reports its points but the one it shares with run
    # i + 1, so each point is reported once; the last run reports all
    pts, end = boxes.pts, len(boxes.pts) - 1
    return [
        k
        for i in live
        for first, last in (boxes.span(i),)
        for k in range(first, last if last < end else end + 1)
        if lo <= a * pts[k][0] + b * pts[k][1] <= hi
    ]


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
            for k in stab(base_boxes, *line, reach):
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
        if stab(other_boxes, a, b, c, 0):
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


def _spiral_den(den: int, n: int) -> int:
    """The least common multiple of den and 2^(n+19): the vertex
    denominator on which the spiral pitch 2^-(n+8) and its 11 halvings
    are integers."""
    return math.lcm(den, 1 << (n + 7 + SPIRAL_LEVELS))


def _jittered_base_points(
    f: PathOracle, i: Interval, n: int, rng: random.Random | None
) -> tuple[int, list[int], int, list[IntPoint]]:
    """The base points `paths._base_points(f, i, n)`, each moved by a
    random jitter of up to _JITTER_SPAN pitches 2^-(n+8) per axis if rng
    is given.

    Without rng the vertex denominator is the oracle's own.  With rng it
    is also a multiple of 2^(n+8), so that the jitter is in integers.
    """
    sden, snums, den, bases = _base_points(f, i, n)
    if rng is None:
        return sden, snums, den, bases
    jitter_den = math.lcm(den, 1 << (n + 8))
    pitch, span, randint = jitter_den >> (n + 8), _JITTER_SPAN, rng.randint
    return sden, snums, jitter_den, [
        (x + randint(-span, span) * pitch, y + randint(-span, span) * pitch)
        for x, y in rescale(bases, jitter_den // den)
    ]


def n_approximation(
    f: PathOracle,
    i: Interval,
    n: int,
    rng: random.Random | None = None,
) -> Track:
    """A track following f on i: gaps below 2^-modulus(n), vertices
    within 2^-n of the curve, consecutive vertices distinct.

    Each vertex starts from its base point and, only where it equals its
    predecessor, walks the spiral of pitch 2^-(n+8) strictly within
    2^-(n+2) of its base, so the combined offset stays below 2^-n.
    """
    sden, snums, b_den, bases = _jittered_base_points(f, i, n, rng)
    den = _spiral_den(b_den, n)
    bases = rescale(bases, den // b_den)
    verts = separated_vertices(bases, (), den >> (n + 8), (den >> (n + 2)) ** 2)
    return Track.from_ints(sden, snums, den, verts)


def n_approximation_pair(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    rng: random.Random | None = None,
) -> tuple[Track, Track]:
    """Weakly separated approximation tracks for f on i and g on j.

    Two phases: the f-track p is built freely, then the g-vertices are
    placed by `separated_vertices` on one integer grid holding p and all
    of g's base points (a `_spiral_den` over both denominators), with
    the spiral of `n_approximation`; the rng is drawn as vertex by
    vertex, since the spiral draws nothing.  The pair is weakly
    separated by construction: check A keeps each g-vertex off every
    f-line meeting its budget square, which holds the vertex, and check
    B each g-line, a g-vertex joined to its predecessor, off every
    f-vertex.
    """
    p = n_approximation(f, i, n, rng)
    sden, snums, g_den, bases = _jittered_base_points(g, j, n, rng)
    den = _spiral_den(math.lcm(p.vden, g_den), n)
    verts = separated_vertices(
        rescale(bases, den // g_den),
        (p.verts_over(den),),
        den >> (n + 8),
        (den >> (n + 2)) ** 2,
    )
    return p, Track.from_ints(sden, snums, den, verts)


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
