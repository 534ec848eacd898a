"""Integer-scaled kernels for the inner loops.

Rational coordinates are rescaled once to a common integer grid; sign
tests, window queries and squared distances then run on plain ints.
Results are exact: this is a representation change, not an
approximation.  Squared distances appear as (num, den) pairs because the
projection case divides by a segment's squared length.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .exact_geom import Point

IntPoint = tuple[int, int]


def over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator d of the values and their numerators over d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def points_over_lcm(points: Sequence[Point]) -> tuple[int, list[IntPoint]]:
    """A common denominator d of the points and their numerators over d."""
    d = math.lcm(*(c.denominator for z in points for c in (z.x, z.y)))
    return d, [
        (z.x.numerator * (d // z.x.denominator), z.y.numerator * (d // z.y.denominator))
        for z in points
    ]


def rescale(ipts: Sequence[IntPoint], m: int) -> Sequence[IntPoint]:
    """The points times m; the same sequence when m is 1."""
    return ipts if m == 1 else [(x * m, y * m) for x, y in ipts]


def pair_over_lcm(
    a_den: int, a: Sequence[IntPoint], b_den: int, b: Sequence[IntPoint]
) -> tuple[Sequence[IntPoint], Sequence[IntPoint], int]:
    """Points a over a_den and b over b_den, both moved onto the common
    denominator den = lcm(a_den, b_den): (a, b, den)."""
    den = math.lcm(a_den, b_den)
    return rescale(a, den // a_den), rescale(b, den // b_den), den


def seg_point_sqdist(
    ax: int, ay: int, bx: int, by: int, px: int, py: int
) -> tuple[int, int]:
    """Squared distance from (px,py) to closed segment, as num/den."""
    wx, wy = bx - ax, by - ay
    vx, vy = px - ax, py - ay
    dot = vx * wx + vy * wy
    if dot <= 0:
        return vx * vx + vy * vy, 1
    ww = wx * wx + wy * wy
    if dot >= ww:
        ux, uy = px - bx, py - by
        return ux * ux + uy * uy, 1
    return (vx * vx + vy * vy) * ww - dot * dot, ww


def _in_box(ax: int, ay: int, bx: int, by: int, px: int, py: int) -> bool:
    lox, hix = (ax, bx) if ax <= bx else (bx, ax)
    loy, hiy = (ay, by) if ay <= by else (by, ay)
    return lox <= px <= hix and loy <= py <= hiy


def segments_intersect(
    ax: int, ay: int, bx: int, by: int, cx: int, cy: int, dx: int, dy: int
) -> bool:
    """Closed-segment intersection test on integer coordinates."""
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if ((o1 > 0) != (o2 > 0)) and o1 != 0 and o2 != 0:
        if ((o3 > 0) != (o4 > 0)) and o3 != 0 and o4 != 0:
            return True
    if o1 == 0 and _in_box(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _in_box(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _in_box(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _in_box(cx, cy, dx, dy, bx, by):
        return True
    return False


def seg_seg_sqdist(
    ax: int, ay: int, bx: int, by: int, cx: int, cy: int, dx: int, dy: int
) -> tuple[int, int]:
    if segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0, 1
    cands = (
        seg_point_sqdist(ax, ay, bx, by, cx, cy),
        seg_point_sqdist(ax, ay, bx, by, dx, dy),
        seg_point_sqdist(cx, cy, dx, dy, ax, ay),
        seg_point_sqdist(cx, cy, dx, dy, bx, by),
    )
    best = cands[0]
    for n, d in cands[1:]:
        if n * best[1] < best[0] * d:
            best = (n, d)
    return best


class BoxLevels:
    """The one box hierarchy over an integer polyline, for every query.

    Leaf run k boxes points RUN*k ... RUN*k + RUN: neighbouring runs
    share one point, so segment s lies inside leaf box s // RUN.  Each
    level above merges neighbouring boxes pairwise (an unpaired last box
    moves up unchanged) up to one root; `levels` lists them root first,
    box k having the children 2k and 2k + 1.  Building costs O(N).  Box
    tests are exact integer tests that only prune; points and segments
    decide every answer.  Queries: `stab` (lines), `any_within` (point
    thresholds), `sq_dist_to_point` (two points or more) and, descending
    two hierarchies together, `segment_pairs`.
    """

    RUN = 8
    __slots__ = ("pts", "levels")

    def __init__(self, ipts: Sequence[IntPoint]):
        run = self.RUN
        boxes = []
        for k in range(0, max(len(ipts) - 1, 1), run):
            xs, ys = zip(*ipts[k : k + run + 1])
            boxes.append((min(xs), max(xs), min(ys), max(ys)))
        levels = [boxes]
        while len(boxes) > 1:
            merged = [
                (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
                for a, b in zip(boxes[::2], boxes[1::2])
            ]
            if len(boxes) % 2:
                merged.append(boxes[-1])
            boxes = merged
            levels.append(boxes)
        levels.reverse()
        self.pts = ipts
        self.levels = levels

    def _leaf(self, k: int) -> Sequence[IntPoint]:
        """The points of leaf run k; consecutive ones are its segments."""
        run = self.RUN
        return self.pts[k * run : k * run + run + 1]

    def stab(self, a: int, b: int, c: int, pad: int) -> list[int]:
        """Indices of the points (x, y) whose square [x-pad, x+pad] x
        [y-pad, y+pad] meets the line a*x + b*y = c, in index order.

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
        levels = self.levels
        root = levels[0][0]
        if not (
            a * root[x_min] + b * root[y_min] <= hi
            and a * root[x_max] + b * root[y_max] >= lo
        ):
            return []
        live = [0]
        for boxes in levels[1:]:
            n_boxes = len(boxes)
            live = [
                k
                for i in live
                for k in (2 * i, 2 * i + 1)
                if k < n_boxes
                and a * boxes[k][x_min] + b * boxes[k][y_min] <= hi
                and a * boxes[k][x_max] + b * boxes[k][y_max] >= lo
            ]
            if not live:
                return []
        # leaf run i reports its points but the one it shares with run
        # i + 1, so each point is reported once
        pts, run, last = self.pts, self.RUN, len(levels[-1]) - 1
        return [
            k
            for i in live
            for k in range(i * run, i * run + run if i < last else len(pts))
            if lo <= a * pts[k][0] + b * pts[k][1] <= hi
        ]

    def any_within(
        self, px: int, py: int, rn: int, rd: int, closed: bool = False
    ) -> bool:
        """True iff the squared distance from an integer point to the
        polyline is below rn/rd (rd > 0), or at most rn/rd if closed.

        Depth first, skipping every box that lies too far away and
        stopping at the first segment close enough, so a point far from
        the polyline costs a few box tests and a point close to it about
        one root-to-leaf path.
        """
        # integer comparisons: x <= y iff x < y + 1
        slack = 1 if closed else 0
        cut = rn + slack
        levels = self.levels
        last = len(levels) - 1
        stack = [(0, 0)]
        push = stack.append
        pop = stack.pop
        while stack:
            depth, k = pop()
            x0, x1, y0, y1 = levels[depth][k]
            xg = x0 - px if px < x0 else (px - x1 if px > x1 else 0)
            yg = y0 - py if py < y0 else (py - y1 if py > y1 else 0)
            # every segment in the box is at least the box gap away
            if (xg * xg + yg * yg) * rd >= cut:
                continue
            if depth < last:
                depth += 1
                if 2 * k + 1 < len(levels[depth]):
                    push((depth, 2 * k + 1))
                push((depth, 2 * k))
                continue
            seg = self._leaf(k)
            for (ax, ay), (bx, by) in zip(seg, seg[1:]):
                n, d = seg_point_sqdist(ax, ay, bx, by, px, py)
                if n * rd < rn * d + slack:
                    return True
        return False

    def sq_dist_to_point(self, px: int, py: int) -> Fraction:
        """Exact squared distance from an integer point to the polyline.

        Branch and bound: a box is opened only while its squared gap is
        below the best distance found so far, nearer child first, so the
        cost is about one root-to-leaf path plus the boxes that tie with
        the answer.
        """
        levels = self.levels
        last = len(levels) - 1
        best_n: int | None = None
        best_d = 1
        # (squared box gap, depth, box); the gap is rechecked at pop time
        # against the bound found since the push
        stack = [(0, 0, 0)]
        while stack:
            gap_sq, depth, k = stack.pop()
            if best_n is not None and gap_sq * best_d >= best_n:
                continue
            if depth == last:
                seg = self._leaf(k)
                for (ax, ay), (bx, by) in zip(seg, seg[1:]):
                    n, d = seg_point_sqdist(ax, ay, bx, by, px, py)
                    if best_n is None or n * best_d < best_n * d:
                        best_n, best_d = n, d
                continue
            depth += 1
            boxes = levels[depth]
            kids = [
                (_sq_gap(boxes[c], (px, px, py, py)), depth, c)
                for c in range(2 * k, min(2 * k + 2, len(boxes)))
            ]
            stack.extend(sorted(kids, reverse=True))  # nearer child on top
        assert best_n is not None, "a distance query needs a segment"
        return Fraction(best_n, best_d)

    def near_leaves(self, other: BoxLevels, sq_reach: int) -> list[tuple[int, int]]:
        """Pairs (k, l) of a leaf run k here and a leaf run l of other
        whose boxes are at most sqrt(sq_reach) apart.

        Gray and Moore's dual-tree traversal: both hierarchies descend
        together, the one with more levels left first, and a box pair
        more than isqrt(sq_reach) apart on an axis is dropped with its
        descendants; leaf pairs are held to the exact squared gap.  Cost:
        one box test per child of a passing pair, level by level.
        """
        la, lb, r = self.levels, other.levels, math.isqrt(sq_reach)
        if _sq_gap(la[0][0], lb[0][0]) > sq_reach:
            return []
        live = [(0, 0)]
        da, db = 0, 0
        while da < len(la) - 1 or db < len(lb) - 1:
            left_a, left_b = len(la) - 1 - da, len(lb) - 1 - db
            step_a, step_b = int(left_a >= left_b), int(left_b >= left_a)
            da, db = da + step_a, db + step_b
            boxes_a, boxes_b = la[da], lb[db]
            na, nb = len(boxes_a), len(boxes_b)
            live = [
                (k, l)
                for i, j in live
                for k in range(i << step_a, min((i << step_a) + 1 + step_a, na))
                for l in range(j << step_b, min((j << step_b) + 1 + step_b, nb))
                if boxes_a[k][0] - r <= boxes_b[l][1]
                and boxes_b[l][0] - r <= boxes_a[k][1]
                and boxes_a[k][2] - r <= boxes_b[l][3]
                and boxes_b[l][2] - r <= boxes_a[k][3]
            ]
        return [(k, l) for k, l in live if _sq_gap(la[-1][k], lb[-1][l]) <= sq_reach]

    def segment_pairs(self, other: BoxLevels, sq_reach: int) -> Iterator[tuple]:
        """(i, j, ax, ay, bx, by, cx, cy, dx, dy) for segment i = ab here
        and segment j = cd of other whose boxes are at most sqrt(sq_reach)
        apart, leaf pair by leaf pair from `near_leaves`; so every pair at
        squared distance at most sq_reach is among them.
        """
        run = self.RUN
        for k, l in self.near_leaves(other, sq_reach):
            bseg = other._leaf(l)
            bsegs = [
                (j, c, d, _seg_box(c, d))
                for j, (c, d) in enumerate(zip(bseg, bseg[1:]), l * run)
            ]
            aseg = self._leaf(k)
            for i, (a, b) in enumerate(zip(aseg, aseg[1:]), k * run):
                abox = _seg_box(a, b)
                for j, c, d, cbox in bsegs:
                    if _sq_gap(abox, cbox) <= sq_reach:
                        yield i, j, *a, *b, *c, *d


def _seg_box(a: IntPoint, b: IntPoint) -> tuple[int, int, int, int]:
    (ax, ay), (bx, by) = a, b
    return ((ax, bx) if ax <= bx else (bx, ax)) + ((ay, by) if ay <= by else (by, ay))


def _sq_gap(a: tuple, b: tuple) -> int:
    """Squared distance between boxes (x0, x1, y0, y1)."""
    xg = max(0, b[0] - a[1], a[0] - b[1])
    yg = max(0, b[2] - a[3], a[2] - b[3])
    return xg * xg + yg * yg


# the former name, under which perfbench's tracer times sq_dist_to_point
PolylineIndex = BoxLevels


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


def min_sqdist_exceeds(
    a: BoxLevels, b: BoxLevels, threshold: Fraction, scale: int
) -> bool:
    """True iff every segment pair of the two polylines is strictly
    farther apart than sqrt(threshold) (threshold in unscaled units).

    `segment_pairs` keeps the pairs whose squared box gap is at most the
    scaled threshold t, and the exact squared distance decides each.
    Cost: the dual descent (a few box tests for polylines far apart)
    plus one exact test per pair kept.  No production code calls it:
    the crossing sweep opens a subset of its box pairs, so a far test
    before the sweep saves nothing.  It stays for its tests and for
    perfbench's tracer, which patches it by name.
    """
    tn = threshold.numerator * scale * scale
    td = threshold.denominator
    # a squared gap g <= tn/td iff g <= tn // td, g being an integer
    for _i, _j, *seg_pair in a.segment_pairs(b, tn // td):
        n, d = seg_seg_sqdist(*seg_pair)
        if n * td <= tn * d:
            return False
    return True
