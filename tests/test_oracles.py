"""The builtin oracles against plain Fraction references.

`QuadBezierPath`, `PolylinePath` (with `TablePath`) and `ExtendedPath`
evaluate in integer arithmetic.  Every value they return must equal the
Fraction computation kept here (de Casteljau, linear interpolation, the
straight tails), and `OutOfDomain` must be raised exactly outside each
domain.  The Bezier grid, built by forward differences, must also equal
the Horner form it replaced, integer for integer.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemeet import (
    PolylinePath,
    QuadBezierPath,
    Side,
    TablePath,
    curved_pair,
    diagonal_pair,
    pt,
)
from curvemeet._fastgeom import over_lcm
from curvemeet.errors import OutOfDomain
from curvemeet.exact_geom import Point
from curvemeet.paths import ExtendedPath

F = Fraction
TINY = F(1, 2**60)


def ref_bezier(path: QuadBezierPath, t: Fraction) -> Point:
    def lerp(p: Point, q: Point) -> Point:
        return Point(p.x + (q.x - p.x) * t, p.y + (q.y - p.y) * t)

    return lerp(lerp(path.p0, path.p1), lerp(path.p1, path.p2))


def ref_polyline(path: PolylinePath, t: Fraction) -> Point:
    params = [s for s, _ in path.entries]
    i = bisect_right(params, t) - 1
    if i == len(params) - 1:
        return path.entries[-1][1]
    (s0, a), (s1, b) = path.entries[i], path.entries[i + 1]
    lam = (t - s0) / (s1 - s0)
    return Point(a.x + (b.x - a.x) * lam, a.y + (b.y - a.y) * lam)


def ref_extended(inner, side: Side, t: Fraction) -> Point:
    left_y, right_y = (F(0), F(1)) if side is Side.LOWER else (F(1), F(0))
    if t <= 0:
        return Point(t, left_y)
    if t >= 1:
        return Point(t, right_y)
    return reference(inner, t)


def reference(path, t: Fraction) -> Point:
    if isinstance(path, QuadBezierPath):
        return ref_bezier(path, t)
    return ref_polyline(path, t)


BEZIERS = [
    *curved_pair(),
    QuadBezierPath(pt(0, 0), pt("-3/7", "11/6"), pt(1, 1)),
    QuadBezierPath(pt(0, 1), pt("5/3", "-2/9"), pt(1, 0)),
]
POLYLINES = [
    *diagonal_pair(),
    PolylinePath(
        [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
    ),
    # a pause (a repeated point) and non-dyadic, negative sample parameters
    PolylinePath(
        [
            ("-2/7", (0, 0)),
            ("1/5", ("1/2", "1/3")),
            ("3/4", ("1/2", "1/3")),
            ("9/7", (2, -1)),
        ]
    ),
    TablePath(
        [(0, (0, 1)), ("1/6", ("1/3", "5/6")), ("5/11", ("1/2", "1/2")), (1, (1, 0))],
        modulus_offset=2,
    ),
]


def probe_params(path) -> list[Fraction]:
    """Dyadic and non-dyadic parameters, both domain ends, the sample
    parameters of a polyline, and points just inside its domain."""
    lo, hi = path.domain.lo, path.domain.hi
    ts = [lo, hi, lo + TINY, hi - TINY, F(0), F(1)]
    width = hi - lo
    ts += [lo + width * F(k, 64) for k in range(65)]
    ts += [lo + width * F(k, 7) for k in range(8)]
    ts += [lo + width * F(k, 1000003) for k in (1, 333334, 999999)]
    if isinstance(path, PolylinePath):
        ts += [s for s, _ in path.entries]
    return [t for t in ts if lo <= t <= hi]


@pytest.mark.parametrize("path", BEZIERS + POLYLINES)
def test_inner_oracle_matches_reference(path) -> None:
    for t in probe_params(path):
        z = path.eval_approx(t, 20)
        assert z == reference(path, t), t
        assert type(z.x) is Fraction and type(z.y) is Fraction


@pytest.mark.parametrize("path", BEZIERS + POLYLINES)
def test_inner_oracle_rejects_just_outside_domain(path) -> None:
    lo, hi = path.domain.lo, path.domain.hi
    for t in (lo - TINY, hi + TINY, lo - 1, hi + F(1, 3)):
        with pytest.raises(OutOfDomain):
            path.eval_approx(t, 20)


UNIT_PATHS = [
    p for p in BEZIERS + POLYLINES if (p.domain.lo, p.domain.hi) == (0, 1)
]
# the oracle does not look at the corners, so every side is evaluated
EXTENDED = [
    (ExtendedPath(p, side), p, side)
    for p in UNIT_PATHS
    for side in (Side.LOWER, Side.UPPER)
]


@pytest.mark.parametrize("f, inner, side", EXTENDED)
def test_extended_oracle_matches_reference(f, inner, side) -> None:
    ts = [F(-1), F(2), F(-1) + TINY, F(2) - TINY, F(0), F(1), -TINY, 1 + TINY]
    ts += [F(k, 64) for k in range(-64, 129)]
    ts += [F(k, 9) for k in range(-9, 19)]
    ts += [s for s, _ in getattr(inner, "entries", ())]
    for t in ts:
        z = f.eval_approx(t, 20)
        assert z == ref_extended(inner, side, t), t
        assert type(z.x) is Fraction and type(z.y) is Fraction


@pytest.mark.parametrize("f, inner, side", EXTENDED[:4])
def test_extended_oracle_rejects_just_outside_domain(f, inner, side) -> None:
    for t in (F(-1) - TINY, F(2) + TINY, F(-4, 3), F(7, 3)):
        with pytest.raises(OutOfDomain):
            f.eval_approx(t, 20)


def test_integer_parameters_evaluate_like_fractions() -> None:
    f = ExtendedPath(curved_pair()[0], Side.LOWER)
    for t in (-1, 0, 1, 2):
        assert f.eval_approx(t, 5) == f.eval_approx(F(t), 5)
    with pytest.raises(OutOfDomain):
        f.eval_approx(3, 5)


params = st.fractions(min_value=-2, max_value=3, max_denominator=10**6)


@given(t=params)
@settings(max_examples=300, deadline=None)
def test_random_parameters_match_reference(t: Fraction) -> None:
    for path in BEZIERS + POLYLINES:
        if t in path.domain:
            assert path.eval_approx(t, 30) == reference(path, t)
        else:
            with pytest.raises(OutOfDomain):
                path.eval_approx(t, 30)
    for f, inner, side in EXTENDED:
        if -1 <= t <= 2:
            assert f.eval_approx(t, 30) == ref_extended(inner, side, t)
        else:
            with pytest.raises(OutOfDomain):
                f.eval_approx(t, 30)


def ref_horner_grid(path: QuadBezierPath, k0: int, k1: int, b: int):
    """`QuadBezierPath.eval_grid` as a Horner list comprehension: per
    axis c0 + k*(c1 + k*c2) over den*b^2 at every k/b."""
    den, (x0, x1, x2, y0, y1, y2) = over_lcm(
        [path.p0.x, path.p1.x, path.p2.x, path.p0.y, path.p1.y, path.p2.y]
    )
    cx0, cx1, cx2 = x0 * b * b, 2 * b * (x1 - x0), x0 - 2 * x1 + x2
    cy0, cy1, cy2 = y0 * b * b, 2 * b * (y1 - y0), y0 - 2 * y1 + y2
    return den * b * b, [
        (cx0 + k * (cx1 + k * cx2), cy0 + k * (cy1 + k * cy2))
        for k in range(k0, k1 + 1)
    ]


coords = st.fractions(min_value=-4, max_value=4, max_denominator=10**4)


@given(
    control=st.lists(st.tuples(coords, coords), min_size=3, max_size=3),
    b=st.one_of(st.integers(1, 300), st.integers(1, 2**30)),
    start=st.fractions(min_value=0, max_value=1),
    count=st.one_of(st.just(1), st.integers(1, 300)),
)
@settings(max_examples=300, deadline=None)
def test_bezier_grid_matches_horner_reference(control, b, start, count) -> None:
    path = QuadBezierPath(*(pt(x, y) for x, y in control))
    k0 = min(int(start * b), b)
    k1 = min(k0 + count - 1, b)
    assert path.eval_grid(k0, k1, b, 30) == ref_horner_grid(path, k0, k1, b)
    assert path.eval_grid(k0, k0, b, 30) == ref_horner_grid(path, k0, k0, b)
    assert path.eval_grid(k0 + 1, k0, b, 30) == (path.eval_grid(k0, k0, b, 30)[0], [])
