"""Integer-scaled kernels for the inner loops.

Rational coordinates are rescaled once to a common integer grid; sign
tests, window queries and squared distances then run on plain ints.
Results are exact: this is a representation change, not an
approximation.  Squared distances appear as (num, den) pairs because
the projection case divides by a segment's squared length.  The paper's
kernels (`Track`, line stabbing and `canonical_lines`) live in `track`,
which builds on these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


def seg_seg_sqdist(
    ax: int, ay: int, bx: int, by: int, cx: int, cy: int, dx: int, dy: int
) -> tuple[int, int]:
    """Squared distance between two closed segments, as num/den: 0 where
    each strictly separates the other's endpoints, else the least
    distance from an endpoint of one to the other, which is 0 where
    they touch or overlap."""
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if o1 * o2 < 0 and o3 * o4 < 0:
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
    box k having the children 2k and 2k + 1.  Building costs O(N).  The
    leaves before the last are boxed column-wise: each bound of each
    leaf is one `min` or `max` call over the RUN + 1 columns xs[o::RUN]
    (ys alike).  The last leaf, which holds 2 to RUN + 1 points (one on
    a one-point polyline), is boxed from its own points, so a polyline
    of one leaf never builds the columns.  Box
    tests are exact integer tests that only prune; points and segments
    decide every answer.  Queries: `any_within` (point thresholds),
    `sq_dist_to_point` (a nearest distance, or a bound it does not beat,
    so that several queries can share one bound) and, descending two
    hierarchies together, `near_leaves` and `segment_pairs`; `track.stab`
    (lines) reads the levels too.  The leaf layout is read only through
    `span` (one leaf's point indices) and `spans` (those of neighbouring
    leaves merged).
    """

    RUN = 8
    __slots__ = ("pts", "levels")

    def __init__(self, ipts: Sequence[IntPoint]):
        run = self.RUN
        boxes = []
        full = max(len(ipts) - 2, 0) // run  # the leaves before the last
        if full:
            xs, ys = [x for x, _ in ipts], [y for _, y in ipts]
            cx = [xs[o : o + run * full : run] for o in range(run + 1)]
            cy = [ys[o : o + run * full : run] for o in range(run + 1)]
            boxes = list(zip(map(min, *cx), map(max, *cx), map(min, *cy), map(max, *cy)))
        xs, ys = zip(*ipts[run * full :])
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
        levels = [boxes]
        while len(boxes) > 1:
            merged = [
                (a0 if a0 < b0 else b0, a1 if a1 > b1 else b1,
                 a2 if a2 < b2 else b2, a3 if a3 > b3 else b3)
                for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(boxes[::2], boxes[1::2])
            ]
            if len(boxes) % 2:
                merged.append(boxes[-1])
            boxes = merged
            levels.append(boxes)
        levels.reverse()
        self.pts = ipts
        self.levels = levels

    def scaled(self, m: int) -> BoxLevels:
        """This hierarchy over the points times m; scaling the boxes
        costs a fraction of building them from the points."""
        out = BoxLevels.__new__(BoxLevels)
        out.pts = rescale(self.pts, m)
        out.levels = [
            [(x0 * m, x1 * m, y0 * m, y1 * m) for x0, x1, y0, y1 in boxes]
            for boxes in self.levels
        ]
        return out

    def span(self, k: int) -> tuple[int, int]:
        """The indices of the first and last point of leaf run k."""
        a = self.RUN * k
        return a, min(a + self.RUN, len(self.pts) - 1)

    def spans(self, leaves: Iterable[int]) -> list[tuple[int, int]]:
        """The `span`s of some leaf runs, in order, each maximal run of
        neighbouring leaves (which share a point) merged into one."""
        out: list[tuple[int, int]] = []
        for a, b in map(self.span, sorted(set(leaves))):
            if out and out[-1][1] == a:
                a = out.pop()[0]
            out.append((a, b))
        return out

    def _leaf(self, k: int) -> Sequence[IntPoint]:
        """The points of leaf run k; consecutive ones are its segments."""
        run = self.RUN
        return self.pts[k * run : k * run + run + 1]

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

    def sq_dist_to_point(
        self, px: int, py: int, bound: Fraction | None = None
    ) -> Fraction:
        """Exact squared distance from an integer point to the polyline,
        or bound if that is smaller.

        Branch and bound: a box is opened only while its squared gap is
        below the best value so far, nearer child first (the left one on
        a tie), so the cost is about one root-to-leaf path plus the boxes
        that tie with the answer.  The best value starts at the squared
        distance to the first point, or at bound if that is smaller; so a
        caller that wants only the least of several distances passes each
        answer on as the next query's bound, and a query that cannot beat
        it opens few boxes or none.  Each answer is the smaller of its
        exact distance and bound, so a chain of queries ends at the least
        exact distance, whatever their order.
        """
        levels = self.levels
        last = len(levels) - 1
        x, y = self.pts[0]
        best_n, best_d = (x - px) ** 2 + (y - py) ** 2, 1
        if bound is not None and bound.numerator < best_n * bound.denominator:
            best_n, best_d = bound.numerator, bound.denominator
        # (squared box gap, depth, box); the gap is rechecked at pop time
        # against the bound found since the push
        stack = [(0, 0, 0)]
        push = stack.append
        while stack:
            gap_sq, depth, k = stack.pop()
            if gap_sq * best_d >= best_n:
                continue
            if depth == last:
                # seg_point_sqdist inlined; past the ends of segment ab
                # the distance is to a or to b, else cross(v, w)^2 / |w|^2
                seg = self._leaf(k)
                ax, ay = seg[0]
                for bx, by in seg[1:]:
                    wx, wy, vx, vy = bx - ax, by - ay, px - ax, py - ay
                    dot = vx * wx + vy * wy
                    ww = wx * wx + wy * wy
                    if dot <= 0:
                        n, d = vx * vx + vy * vy, 1
                    elif dot >= ww:
                        n, d = (px - bx) ** 2 + (py - by) ** 2, 1
                    else:
                        n, d = (vx * wy - vy * wx) ** 2, ww
                    if n * best_d < best_n * d:
                        best_n, best_d = n, d
                    ax, ay = bx, by
                continue
            depth += 1
            boxes = levels[depth]
            c = 2 * k
            x0, x1, y0, y1 = boxes[c]
            xg = x0 - px if px < x0 else (px - x1 if px > x1 else 0)
            yg = y0 - py if py < y0 else (py - y1 if py > y1 else 0)
            left = (xg * xg + yg * yg, depth, c)
            if c + 1 == len(boxes):
                push(left)
                continue
            x0, x1, y0, y1 = boxes[c + 1]
            xg = x0 - px if px < x0 else (px - x1 if px > x1 else 0)
            yg = y0 - py if py < y0 else (py - y1 if py > y1 else 0)
            right = (xg * xg + yg * yg, depth, c + 1)
            # the nearer child on top
            if right[0] < left[0]:
                push(left)
                push(right)
            else:
                push(right)
                push(left)
        return Fraction(best_n, best_d)

    def near_leaves(self, other: BoxLevels, sq_reach: int) -> list[tuple[int, int]]:
        """Pairs (k, l) of a leaf run k here and a leaf run l of other
        whose boxes are at most sqrt(sq_reach) apart.

        Gray and Moore's dual-tree traversal: both hierarchies descend
        together, the one with more levels left first, and a box pair
        more than isqrt(sq_reach) apart on an axis is dropped with its
        descendants; leaf pairs are held to the exact squared gap.  Cost:
        one box test per child of a passing pair, level by level, in one
        loop over the passing pairs: each level's boxes are grouped by
        parent once (`_kids`), and each child box of a is unpacked and
        widened by the reach once per passing pair.
        """
        la, lb, r = self.levels, other.levels, math.isqrt(sq_reach)
        if _sq_gap(la[0][0], lb[0][0]) > sq_reach:
            return []
        live = [(0, 0)]
        da, db = 0, 0
        while live and (da < len(la) - 1 or db < len(lb) - 1):
            left_a, left_b = len(la) - 1 - da, len(lb) - 1 - db
            step_a, step_b = int(left_a >= left_b), int(left_b >= left_a)
            da, db = da + step_a, db + step_b
            kids_a = _kids(list(enumerate(la[da])), step_a)
            kids_b = _kids(list(enumerate(lb[db])), step_b)
            pairs: list[tuple[int, int]] = []
            push = pairs.append
            for i, j in live:
                ls = kids_b[j]
                for k, (x0, x1, y0, y1) in kids_a[i]:
                    x0, x1, y0, y1 = x0 - r, x1 + r, y0 - r, y1 + r
                    for l, (u0, u1, v0, v1) in ls:
                        if x0 <= u1 and u0 <= x1 and y0 <= v1 and v0 <= y1:
                            push((k, l))
            live = pairs
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


def _kids(items: list, step: int) -> list:
    """A level's items by parent: in twos (an odd last one alone) where
    the level below merged pairs, else one each."""
    if not step:
        return list(zip(items))
    return list(zip(items[::2], items[1::2])) + [items[-1:]] * (len(items) % 2)


def _seg_box(a: IntPoint, b: IntPoint) -> tuple[int, int, int, int]:
    (ax, ay), (bx, by) = a, b
    return ((ax, bx) if ax <= bx else (bx, ax)) + ((ay, by) if ay <= by else (by, ay))


def _sq_gap(a: tuple, b: tuple) -> int:
    """Squared distance between boxes (x0, x1, y0, y1)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    xg = b0 - a1 if b0 > a1 else (a0 - b1 if a0 > b1 else 0)
    yg = b2 - a3 if b2 > a3 else (a2 - b3 if a2 > b3 else 0)
    return xg * xg + yg * yg


# the former name, under which perfbench's tracer times sq_dist_to_point
PolylineIndex = BoxLevels


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
