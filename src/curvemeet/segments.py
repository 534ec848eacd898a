"""The exact `Fraction` segment kernel.

Orientation, canonical lines and the incidence and squared distance of
closed segments, each decided exactly on `Fraction` points.  The
pipeline decides with the integer kernels of `_fastgeom` and never
imports this module; tests check those kernels against this one, and
the paper's track module builds its line sets with `Line`.  The package
loads it on first use of one of its names (`curvemeet.Segment`,
`curvemeet.classify_segment_pair`, ...).
"""

import enum
import math
from fractions import Fraction

from .exact_geom import Frozen, Point


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area*2 of triangle o,a,b."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 collinear."""
    v = cross(a, b, c)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


class Segment(Frozen):
    """Closed segment with distinct rational endpoints."""

    __slots__ = ("a", "b")

    def __init__(self, a: Point, b: Point):
        if a == b:
            raise ValueError("degenerate segment")
        self._store(a, b)


class Line(Frozen):
    """Line A*x + B*y = C in canonical integer form.

    Canonical: gcd(A, B, C) = 1 and (A, B) lexicographically positive,
    so equal lines compare and hash equal.
    """

    __slots__ = ("A", "B", "C")

    def __init__(self, A: int, B: int, C: int):
        self._store(A, B, C)

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        if p == q:
            raise ValueError("two distinct points are required to span a line")
        a = q.y - p.y
        b = p.x - q.x
        c = a * p.x + b * p.y
        m = math.lcm(a.denominator, b.denominator, c.denominator)
        ai = a.numerator * (m // a.denominator)
        bi = b.numerator * (m // b.denominator)
        ci = c.numerator * (m // c.denominator)
        g = math.gcd(math.gcd(abs(ai), abs(bi)), abs(ci))
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        return Line(ai, bi, ci)

    def contains(self, p: Point) -> bool:
        return point_on_line(p, self)


def point_on_line(p: Point, line: Line) -> bool:
    # A*px + B*py == C, cleared of denominators.
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    return line.A * xn * yd + line.B * yn * xd == line.C * xd * yd


class SegKind(enum.Enum):
    DISJOINT = "disjoint"
    TOUCHING = "touching"
    COLLINEAR_OVERLAP = "collinear_overlap"
    PROPER_CROSSING = "proper_crossing"


class SegRelation(Frozen):
    __slots__ = ("kind", "point")

    def __init__(self, kind: SegKind, point: Point | None = None):
        # point is set exactly for PROPER_CROSSING
        self._store(kind, point)


def _on_closed_segment(p: Point, s: Segment) -> bool:
    if orient(s.a, s.b, p) != 0:
        return False
    lox, hix = sorted((s.a.x, s.b.x))
    loy, hiy = sorted((s.a.y, s.b.y))
    return lox <= p.x <= hix and loy <= p.y <= hiy


def _crossing_point(s1: Segment, s2: Segment) -> Point:
    d1 = s1.b - s1.a
    num = cross(s1.a, s2.a, s2.b)
    den = cross(s1.a, s1.b, s2.b) - cross(s1.a, s1.b, s2.a)
    # den != 0 for transversal segments; t in (0, 1).
    t = num / den
    return s1.a + d1.scale(t)


def classify_segment_pair(s1: Segment, s2: Segment) -> SegRelation:
    """Exact incidence of two closed segments.

    PROPER_CROSSING means the open interiors meet transversally in one
    point (reported exactly).  TOUCHING covers every other non-empty
    intersection that is a single point; COLLINEAR_OVERLAP a shared
    sub-segment of positive length.
    """
    o1 = orient(s1.a, s1.b, s2.a)
    o2 = orient(s1.a, s1.b, s2.b)
    o3 = orient(s2.a, s2.b, s1.a)
    o4 = orient(s2.a, s2.b, s1.b)

    if o1 * o2 < 0 and o3 * o4 < 0:
        return SegRelation(SegKind.PROPER_CROSSING, _crossing_point(s1, s2))

    if o1 == o2 == o3 == o4 == 0:
        # One common line; compare 1-d shadows on its dominant axis.
        use_x = s1.a.x != s1.b.x
        proj = (lambda p: p.x) if use_x else (lambda p: p.y)
        lo1, hi1 = sorted((proj(s1.a), proj(s1.b)))
        lo2, hi2 = sorted((proj(s2.a), proj(s2.b)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return SegRelation(SegKind.DISJOINT)
        if lo == hi:
            return SegRelation(SegKind.TOUCHING)
        return SegRelation(SegKind.COLLINEAR_OVERLAP)

    if (
        _on_closed_segment(s2.a, s1)
        or _on_closed_segment(s2.b, s1)
        or _on_closed_segment(s1.a, s2)
        or _on_closed_segment(s1.b, s2)
    ):
        return SegRelation(SegKind.TOUCHING)
    return SegRelation(SegKind.DISJOINT)


def sq_dist_point_segment(p: Point, s: Segment) -> Fraction:
    w = s.b - s.a
    v = p - s.a
    t_num = v.x * w.x + v.y * w.y
    if t_num <= 0:
        return v.sq_norm()
    t_den = w.sq_norm()
    if t_num >= t_den:
        return (p - s.b).sq_norm()
    # distance to the supporting line, squared: |v|^2 - (v.w)^2/|w|^2
    return v.sq_norm() - t_num * t_num / t_den


def sq_dist_segment_segment(s1: Segment, s2: Segment) -> Fraction:
    """Squared distance between closed segments; 0 iff they intersect."""
    if classify_segment_pair(s1, s2).kind is not SegKind.DISJOINT:
        return Fraction(0)
    return min(
        sq_dist_point_segment(s1.a, s2),
        sq_dist_point_segment(s1.b, s2),
        sq_dist_point_segment(s2.a, s1),
        sq_dist_point_segment(s2.b, s1),
    )
