"""The box hierarchy's distance and pair queries against brute force.

`BoxLevels` answers every geometric query on a polyline: point
thresholds and nearest distances for the shrink step, the clearance
probes and the certificate check, and, by descending two hierarchies
together, the segment pairs of the far-window test and the crossing
sweep.  Each query is compared here with a scan over all segments or all
segment pairs.  Leaf runs hold 8 segments: the sizes fill them exactly
(9, 17, 65 points), leave the last one short (2, 8, 16, 200 points),
give hierarchies of unequal depth (1 to 25 leaf runs) and leave levels
with an unpaired last box (200 points: 25, 13 and 7 boxes).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import curvemeet.refine as refine_module
from curvemeet import NotSeparated, PolylinePath, crossing_count, make_track
from curvemeet._fastgeom import (
    BoxLevels,
    min_sqdist_exceeds,
    seg_point_sqdist,
    seg_seg_sqdist,
)
from curvemeet.errors import InvariantViolation
from curvemeet.exact_geom import (
    Point,
    SegKind,
    Segment,
    classify_segment_pair,
    interval,
    pow2,
    sq_dist_segment_segment,
)

F = Fraction
SIZES = (2, 8, 9, 16, 17, 65, 200)


def _walk(rng: random.Random, size: int, step: int, start=(0, 0)) -> list:
    """A random walk of `size` integer points, neighbours distinct."""
    pts = [start]
    while len(pts) < size:
        x, y = pts[-1]
        z = (x + rng.randint(-step, step), y + rng.randint(-step, step))
        if z != pts[-1]:
            pts.append(z)
    return pts


def _segments(pts: list) -> list:
    return list(zip(pts, pts[1:]))


def _sq_gap(s: tuple, t: tuple) -> int:
    """Squared gap between the boxes of two segments."""
    (ax, ay), (bx, by) = s
    (cx, cy), (dx, dy) = t
    xg = max(0, min(cx, dx) - max(ax, bx), min(ax, bx) - max(cx, dx))
    yg = max(0, min(cy, dy) - max(ay, by), min(ay, by) - max(cy, dy))
    return xg * xg + yg * yg


def _fraction_segment(a: tuple, b: tuple) -> Segment:
    return Segment(Point(F(a[0]), F(a[1])), Point(F(b[0]), F(b[1])))


def _min_sqdist(a: list, b: list) -> Fraction:
    return min(
        F(*seg_seg_sqdist(*s[0], *s[1], *t[0], *t[1]))
        for s in _segments(a)
        for t in _segments(b)
    )


# ------------------------------------------------------------ segment pairs


@pytest.mark.parametrize("size_a", SIZES)
def test_segment_pairs_match_all_pairs(size_a: int) -> None:
    rng = random.Random(size_a)
    for size_b in SIZES:
        a = _walk(rng, size_a, 9)
        b = _walk(rng, size_b, 9, start=(rng.randint(-30, 30), rng.randint(-30, 30)))
        boxes_a, boxes_b = BoxLevels(a), BoxLevels(b)
        for sq_reach in (0, 1, 2, 16, 50, 625):
            got = list(boxes_a.segment_pairs(boxes_b, sq_reach))
            want = [
                (i, j, *s[0], *s[1], *t[0], *t[1])
                for i, s in enumerate(_segments(a))
                for j, t in enumerate(_segments(b))
                if _sq_gap(s, t) <= sq_reach
            ]
            assert sorted(got) == want, (size_a, size_b, sq_reach)


def test_segment_pairs_of_far_polylines_are_none() -> None:
    rng = random.Random(3)
    a = _walk(rng, 200, 5)
    b = [(x + 10**6, y) for x, y in _walk(rng, 200, 5)]
    assert list(BoxLevels(a).segment_pairs(BoxLevels(b), 10**6)) == []
    assert BoxLevels(a).near_leaves(BoxLevels(b), 0) == []


# ------------------------------------------------------------ far-window test


def test_segment_kernel_matches_fraction_kernel() -> None:
    rng = random.Random(8)
    for _ in range(300):
        s, t = _segments(_walk(rng, 2, 6)), _segments(_walk(rng, 2, 6, (2, 1)))
        seg_s, seg_t = _fraction_segment(*s[0]), _fraction_segment(*t[0])
        want = sq_dist_segment_segment(seg_s, seg_t)
        assert F(*seg_seg_sqdist(*s[0][0], *s[0][1], *t[0][0], *t[0][1])) == want


@pytest.mark.parametrize("size_a", SIZES)
def test_min_sqdist_exceeds_matches_all_pairs(size_a: int) -> None:
    rng = random.Random(100 + size_a)
    for size_b in SIZES:
        a = _walk(rng, size_a, 12)
        b = _walk(rng, size_b, 12, start=(rng.randint(-60, 60), rng.randint(-60, 60)))
        q = _min_sqdist(a, b)
        boxes = BoxLevels(a), BoxLevels(b)
        for scale in (1, 7):
            # thresholds are given in units of 1/scale
            sq = scale * scale
            assert not min_sqdist_exceeds(*boxes, q / sq, scale)
            if q > 0:
                assert min_sqdist_exceeds(*boxes, q / sq - F(1, 10**9), scale)
            for t in (F(0), F(rng.randint(0, 400)), q + 1, q / 2, q * 2):
                assert min_sqdist_exceeds(*boxes, t / sq, scale) == (q > t), (t, q)


@pytest.mark.parametrize("size", SIZES)
def test_min_sqdist_exceeds_at_exact_axis_gap(size: int) -> None:
    # two level polylines exactly r apart: every box gap equals the reach
    rng = random.Random(size)
    xs = sorted(rng.sample(range(-500, 500), size))
    for r in (1, 5, 12):
        a = [(x, 0) for x in xs]
        b = [(x + rng.randint(-3, 3), r) for x in xs]
        b = [z for k, z in enumerate(b) if k == 0 or z != b[k - 1]]
        boxes = BoxLevels(a), BoxLevels(b)
        assert not min_sqdist_exceeds(*boxes, F(r * r), 1)
        assert min_sqdist_exceeds(*boxes, F(r * r) - F(1, 1000), 1)
        # the same polylines side by side: gaps on the x axis
        a_t = [(y, x) for x, y in a]
        b_t = [(y, x) for x, y in b]
        assert not min_sqdist_exceeds(BoxLevels(a_t), BoxLevels(b_t), F(r * r), 1)


# ------------------------------------------------------------ crossing sweep


def _orient(a: tuple, b: tuple, c: tuple) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _crossings_all_pairs(a: list, b: list) -> list:
    """Proper crossings of two weakly separated polylines with parameters
    0, 1, 2, ...: (s, t, point) for every crossing segment pair, by (i, j)."""
    out = []
    for i, (p0, p1) in enumerate(_segments(a)):
        for j, (q0, q1) in enumerate(_segments(b)):
            signs = [_orient(p0, p1, q0), _orient(p0, p1, q1)]
            signs += [_orient(q0, q1, p0), _orient(q0, q1, p1)]
            assert 0 not in signs
            if signs[0] * signs[1] > 0 or signs[2] * signs[3] > 0:
                continue
            seg_p, seg_q = _fraction_segment(p0, p1), _fraction_segment(q0, q1)
            rel = classify_segment_pair(seg_p, seg_q)
            assert rel.kind is SegKind.PROPER_CROSSING
            z = rel.point

            def frac(u0, u1, zc):
                return (zc - u0) / (u1 - u0)

            u = frac(p0[0], p1[0], z.x) if p0[0] != p1[0] else frac(p0[1], p1[1], z.y)
            v = frac(q0[0], q1[0], z.x) if q0[0] != q1[0] else frac(q0[1], q1[1], z.y)
            out.append((i + u, j + v, z))
    return out


def _separated_walk_pair(rng: random.Random, size_a: int, size_b: int):
    # a fine lattice: random walks that cross often but meet no line
    # exactly
    a = _walk(rng, size_a, 10**5, (0, 0))
    b = _walk(rng, size_b, 10**5, (rng.randint(-10**5, 10**5), 0))
    return a, b


@pytest.mark.parametrize("size_a", SIZES)
def test_crossing_sweep_matches_all_pairs(size_a: int) -> None:
    rng = random.Random(200 + size_a)
    for size_b in SIZES:
        a, b = _separated_walk_pair(rng, size_a, size_b)
        p = make_track(list(enumerate(a)))
        q = make_track(list(enumerate(b)))
        report = crossing_count(p, q)
        assert list(report.crossings) == _crossings_all_pairs(a, b)


def test_crossing_sweep_counts_many_crossings() -> None:
    # a comb through a zigzag: every tooth crosses every zigzag leg
    zig = [(10 * k + 1, 1000 if k % 2 else -1000) for k in range(65)]
    comb = []
    for k in range(17):
        y = 100 * k - 800
        comb += [(-7, y + 3), (700, y)]
    p = make_track(list(enumerate(zig)))
    q = make_track(list(enumerate(comb)))
    report = crossing_count(p, q)
    assert list(report.crossings) == _crossings_all_pairs(zig, comb)
    assert report.count > 1000


def test_crossing_sweep_rejects_unseparated_tracks() -> None:
    p = make_track(list(enumerate([(0, 0), (4, 4), (8, 0)])))
    q = make_track(list(enumerate([(0, 4), (2, 2), (8, 9)])))
    with pytest.raises(NotSeparated):
        crossing_count(p, q)


# ------------------------------------------------------------ point queries


@pytest.mark.parametrize("size", SIZES)
def test_point_queries_match_all_segments(size: int) -> None:
    rng = random.Random(300 + size)
    pts = _walk(rng, size, 7)
    boxes = BoxLevels(pts)
    for _ in range(40):
        px, py = rng.randint(-40, 40), rng.randint(-40, 40)
        q = min(F(*seg_point_sqdist(*s[0], *s[1], px, py)) for s in _segments(pts))
        assert boxes.sq_dist_to_point(px, py) == q
        for r in (q, q + F(1, 97), q - F(1, 97), F(rng.randint(0, 300))):
            if r < 0:
                continue
            k = rng.randint(1, 5)
            rn, rd = r.numerator * k, r.denominator * k
            assert boxes.any_within(px, py, rn, rd) == (q < r)
            assert boxes.any_within(px, py, rn, rd, closed=True) == (q <= r)


# ------------------------------------------------------------ certificate check


@pytest.mark.parametrize("level", [1, 3])
def test_check_neighborhood_fails_only_beyond_the_radius(level: int) -> None:
    # two level lines; with a large sample budget the sampling precision
    # is level + 5, so the allowed distance is 2^-level + 6 * 2^-(level+5)
    allowed = pow2(-level) + 6 * pow2(-(level + 5))
    flat = PolylinePath([(0, (0, 0)), (1, (1, 0))])
    unit = interval(0, 1)

    def check(gap: Fraction) -> None:
        other = PolylinePath([(0, (0, gap)), (1, (1, gap))])
        refine_module._check_neighborhood(flat, unit, other, unit, level, 10**9)

    check(allowed)  # exactly at the radius: passes
    check(allowed - F(1, 2**20))
    with pytest.raises(InvariantViolation):
        check(allowed + F(1, 2**20))


def test_box_levels_leaf_runs_share_one_point() -> None:
    pts = _walk(random.Random(1), 17, 3)
    boxes = BoxLevels(pts)
    leaves = boxes.levels[-1]
    assert len(leaves) == 2
    for k, (x0, x1, y0, y1) in enumerate(leaves):
        run = pts[8 * k : 8 * k + 9]
        assert (x0, x1) == (min(x for x, _ in run), max(x for x, _ in run))
        assert (y0, y1) == (min(y for _, y in run), max(y for _, y in run))
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    assert boxes.levels[0] == [(min(xs), max(xs), min(ys), max(ys))]
