import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemeet import (
    DistanceEnclosure,
    Interval,
    Line,
    SegKind,
    Segment,
    classify_segment_pair,
    interval,
    orient,
    pow2,
    pt,
    smallest_n_below,
    sq_dist_point_segment,
    sq_dist_segment_segment,
    sqrt_enclosure,
)
from curvemeet.exact_geom import ceil_log2
from curvemeet.segments import point_on_line

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
points = st.builds(pt, rationals, rationals)


def seg(ax, ay, bx, by) -> Segment:
    return Segment(pt(ax, ay), pt(bx, by))


# ------------------------------------------------------------ orientation


def test_orient_examples() -> None:
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
    assert orient(pt(0, 0), pt(1, 0), pt(1, -1)) == -1


@given(points, points, points)
def test_orient_antisymmetry(a, b, c) -> None:
    assert orient(a, b, c) == -orient(a, c, b) == -orient(b, a, c)


# ------------------------------------------------------------------ lines


def test_point_on_line_examples() -> None:
    diag = Line.through(pt(0, 0), pt(1, 1))
    assert point_on_line(pt("1/2", "1/2"), diag)
    assert not point_on_line(pt(0, 1), diag)
    anti = Line.through(pt(1, 0), pt(0, 1))  # x + y = 1
    assert point_on_line(pt("1/3", "2/3"), anti)


@given(points, points)
def test_line_canonical_form_is_shared(a, b) -> None:
    if a == b:
        return
    line = Line.through(a, b)
    assert Line.through(b, a) == line
    assert (line.A, line.B) != (0, 0)
    assert line.A > 0 or (line.A == 0 and line.B > 0)
    assert point_on_line(a, line) and point_on_line(b, line)


def test_degenerate_line_and_segment_rejected() -> None:
    with pytest.raises(ValueError):
        Line.through(pt(1, 2), pt(1, 2))
    with pytest.raises(ValueError):
        Segment(pt(0, 0), pt(0, 0))


# --------------------------------------------------------- classification


def test_classify_examples() -> None:
    crossing = classify_segment_pair(seg(0, 0, 1, 1), seg(0, 1, 1, 0))
    assert crossing.kind is SegKind.PROPER_CROSSING
    assert crossing.point == pt("1/2", "1/2")
    assert (
        classify_segment_pair(seg(0, 0, 1, 0), seg(2, 0, 3, 0)).kind
        is SegKind.DISJOINT
    )
    assert (
        classify_segment_pair(seg(0, 0, 2, 0), seg(1, 0, 3, 0)).kind
        is SegKind.COLLINEAR_OVERLAP
    )
    assert (
        classify_segment_pair(seg(0, 0, 1, 0), seg(1, 0, 1, 1)).kind
        is SegKind.TOUCHING
    )


@given(points, points, points, points)
def test_classify_symmetry(a, b, c, d) -> None:
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    r12 = classify_segment_pair(s1, s2)
    r21 = classify_segment_pair(s2, s1)
    assert r12.kind is r21.kind
    assert r12.point == r21.point


def test_proper_crossing_matches_exact_parameter_solve() -> None:
    # 1000 random rational segment pairs: the classifier agrees with a
    # direct Cramer solve, and reported points lie interior on both lines
    rng = random.Random(4242)

    def coord() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    checked = 0
    for _ in range(1000):
        a, b = pt(coord(), coord()), pt(coord(), coord())
        c, d = pt(coord(), coord()), pt(coord(), coord())
        if a == b or c == d:
            continue
        s1, s2 = Segment(a, b), Segment(c, d)
        rel = classify_segment_pair(s1, s2)
        d1, d2 = b - a, d - c
        den = d1.x * d2.y - d1.y * d2.x
        transversal_interior = False
        if den != 0:
            r = c - a
            u = (r.x * d2.y - r.y * d2.x) / den
            v = (r.x * d1.y - r.y * d1.x) / den
            transversal_interior = 0 < u < 1 and 0 < v < 1
            if transversal_interior:
                x = a + d1.scale(u)
                assert rel.kind is SegKind.PROPER_CROSSING
                assert rel.point == x
                assert point_on_line(x, Line.through(a, b))
                assert point_on_line(x, Line.through(c, d))
                checked += 1
        if not transversal_interior:
            assert rel.kind is not SegKind.PROPER_CROSSING
    assert checked > 50


# -------------------------------------------------------------- distances


def test_sq_dist_point_segment_examples() -> None:
    assert sq_dist_point_segment(pt(0, 1), seg(-1, 0, 1, 0)) == 1
    assert sq_dist_point_segment(pt(2, 0), seg(0, 0, 1, 0)) == 1
    assert sq_dist_point_segment(pt("1/2", "1/2"), seg(0, 0, 1, 1)) == 0


def test_sq_dist_segment_segment_examples() -> None:
    assert sq_dist_segment_segment(seg(0, 0, 1, 1), seg(0, 1, 1, 0)) == 0
    assert sq_dist_segment_segment(seg(0, 0, 1, 0), seg(0, 2, 1, 2)) == 4
    # nearest endpoint pair (0,1)-(3,4): 9 + 9
    assert sq_dist_segment_segment(seg(0, 0, 0, 1), seg(3, 4, 3, 5)) == 18


@given(points, points, points, points)
def test_zero_distance_iff_not_disjoint(a, b, c, d) -> None:
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    zero = sq_dist_segment_segment(s1, s2) == 0
    assert zero == (classify_segment_pair(s1, s2).kind is not SegKind.DISJOINT)


# ----------------------------------------------------------- square roots


def test_sqrt_enclosure_examples() -> None:
    assert sqrt_enclosure(Fraction(4), 10) == DistanceEnclosure(
        Fraction(2), Fraction(2)
    )
    enc = sqrt_enclosure(Fraction(2), 3)
    assert enc.lo**2 <= 2 <= enc.hi**2
    assert enc.hi - enc.lo <= Fraction(1, 8)
    assert sqrt_enclosure(Fraction(0), 5) == DistanceEnclosure(
        Fraction(0), Fraction(0)
    )


@given(
    st.fractions(min_value=0, max_value=300, max_denominator=997),
    st.integers(min_value=0, max_value=64),
)
def test_sqrt_enclosure_contract(q, k) -> None:
    enc = sqrt_enclosure(q, k)
    assert 0 <= enc.lo <= enc.hi
    assert enc.lo**2 <= q <= enc.hi**2
    assert enc.hi - enc.lo <= pow2(-k)
    assert sqrt_enclosure(q, k) == enc  # deterministic


# ------------------------------------------------------- dyadic utilities


def test_dyadic_helpers() -> None:
    assert ceil_log2(Fraction(1)) == 0
    assert ceil_log2(Fraction(5)) == 3
    assert ceil_log2(Fraction(1, 3)) == -1
    assert smallest_n_below(Fraction(1)) == 1
    assert smallest_n_below(Fraction(1, 16)) == 5
    assert smallest_n_below(Fraction(3)) == 0
    with pytest.raises(ValueError):
        smallest_n_below(Fraction(0))


@given(st.fractions(min_value="1/1000000", max_value=1000, max_denominator=10**6))
def test_smallest_n_below_is_minimal(x) -> None:
    n = smallest_n_below(x)
    assert pow2(-n) < x
    assert n == 0 or pow2(-(n - 1)) >= x


def test_interval_basics() -> None:
    iv = interval(0, 1)
    assert iv.width() == 1
    assert Fraction(1, 2) in iv
    assert iv.contains_interval(interval("1/4", "3/4"))
    assert not iv.contains_interval(interval("1/2", 2))
    assert iv.clip(interval("1/2", 3)) == interval("1/2", 1)
    with pytest.raises(ValueError):
        iv.clip(interval(2, 3))
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))
