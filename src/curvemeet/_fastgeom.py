"""Integer-scaled kernels for the inner loops.

Rational coordinates are rescaled once to a common integer grid; sign
tests, window queries and squared distances then run on plain ints.
Results are exact: this is a representation change, not an
approximation.  Squared distances appear as (num, den) pairs because the
projection case divides by a segment's squared length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def common_scale(*point_groups: Sequence[Point]) -> tuple[list[list[IntPoint]], int]:
    """The groups' numerators over one common denominator, and that
    denominator.  Tracks are built in integers, so only the tests use it."""
    converted = [points_over_lcm(group) for group in point_groups]
    scale = math.lcm(*(d for d, _ in converted))
    return [list(rescale(ints, scale // d)) for d, ints in converted], scale


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


class PolylineIndex:
    """Segments of an integer polyline indexed two ways.

    An x-sorted list serves window queries for the crossing sweep.  For
    distance queries a bounding-box tree over the segments in curve
    order is built.  Each is built on first use, so a caller that needs
    only one pays for one.  `sq_dist_to_point` returns the exact
    nearest squared distance by branch-and-bound descent, visiting only
    the nodes whose box is closer than the best distance found so far.
    `any_within` decides the predicate "squared distance < rn/rd"
    instead: it skips every node whose box lies at least that far away
    and stops at the first segment strictly inside, so points far from
    the polyline cost a handful of box tests rather than a search for a
    nearest segment that the caller never needed.
    """

    __slots__ = ("_by_x", "_pts", "_nodes", "_root")

    def __init__(self, ipts: Sequence[IntPoint]):
        if len(ipts) < 2:
            raise ValueError("empty polyline")
        self._pts = ipts
        self._by_x: tuple[list[tuple], list[int], int] | None = None
        self._nodes: list[tuple] | None = None
        self._root = 0

    def overlapping(self, xlo: int, xhi: int) -> Iterator[tuple]:
        """Segments whose x-range meets [xlo, xhi]."""
        if self._by_x is None:
            segs = []
            pts = self._pts
            for idx, ((ax, ay), (bx, by)) in enumerate(zip(pts, pts[1:])):
                minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
                miny, maxy = (ay, by) if ay <= by else (by, ay)
                segs.append((minx, maxx, miny, maxy, ax, ay, bx, by, idx))
            segs.sort(key=lambda s: s[0])
            self._by_x = (segs, [s[0] for s in segs], max(s[1] - s[0] for s in segs))
        segs, minxs, max_extent = self._by_x
        stop = xlo - max_extent
        for i in range(bisect_right(minxs, xhi) - 1, -1, -1):
            seg = segs[i]
            if seg[0] < stop:
                break
            if seg[1] >= xlo:
                yield seg

    def _tree(self) -> list[tuple]:
        # node: (minx, maxx, miny, maxy, left, right, ax, ay, bx, by);
        # left/right are node indices, -1 marks a leaf holding a segment.
        # Built bottom-up: each level pairs up the nodes of the one below,
        # and an unpaired last node moves up unchanged.
        if self._nodes is not None:
            return self._nodes
        pts = self._pts
        nodes: list[tuple] = []
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
            miny, maxy = (ay, by) if ay <= by else (by, ay)
            nodes.append((minx, maxx, miny, maxy, -1, -1, ax, ay, bx, by))
        lo, hi = 0, len(nodes)
        while hi - lo > 1:
            for i in range(lo, hi - 1, 2):
                a, b = nodes[i], nodes[i + 1]
                nodes.append(
                    (
                        a[0] if a[0] <= b[0] else b[0],
                        a[1] if a[1] >= b[1] else b[1],
                        a[2] if a[2] <= b[2] else b[2],
                        a[3] if a[3] >= b[3] else b[3],
                        i,
                        i + 1,
                        0,
                        0,
                        0,
                        0,
                    )
                )
            if (hi - lo) % 2:
                nodes.append(nodes[hi - 1])
            lo, hi = hi, len(nodes)
        self._root = lo
        self._nodes = nodes
        return nodes

    def sq_dist_to_point(self, px: int, py: int) -> Fraction:
        """Exact squared distance from an integer point to the polyline."""
        nodes = self._tree()
        best_n: int | None = None
        best_d = 1
        # stack holds (squared box gap, node); gaps are computed once at
        # push time and rechecked against the improving bound at pop time
        stack = [(0, nodes[self._root])]
        push = stack.append
        pop = stack.pop
        while stack:
            gap_sq, node = pop()
            if best_n is not None and gap_sq * best_d >= best_n:
                continue
            li = node[4]
            if li < 0:
                n, d = seg_point_sqdist(
                    node[6], node[7], node[8], node[9], px, py
                )
                if best_n is None or n * best_d < best_n * d:
                    best_n, best_d = n, d
            else:
                lnode = nodes[li]
                rnode = nodes[node[5]]
                xg = lnode[0] - px if px < lnode[0] else (px - lnode[1] if px > lnode[1] else 0)
                yg = lnode[2] - py if py < lnode[2] else (py - lnode[3] if py > lnode[3] else 0)
                lgap = xg * xg + yg * yg
                xg = rnode[0] - px if px < rnode[0] else (px - rnode[1] if px > rnode[1] else 0)
                yg = rnode[2] - py if py < rnode[2] else (py - rnode[3] if py > rnode[3] else 0)
                rgap = xg * xg + yg * yg
                # nearer child on top of the stack
                if lgap <= rgap:
                    push((rgap, rnode))
                    push((lgap, lnode))
                else:
                    push((lgap, lnode))
                    push((rgap, rnode))
        assert best_n is not None
        return Fraction(best_n, best_d)

    def any_within(self, px: int, py: int, rn: int, rd: int) -> bool:
        """True iff the squared distance from an integer point to the
        polyline is strictly below rn/rd (rd > 0)."""
        nodes = self._tree()
        stack = [nodes[self._root]]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            xg = node[0] - px if px < node[0] else (px - node[1] if px > node[1] else 0)
            yg = node[2] - py if py < node[2] else (py - node[3] if py > node[3] else 0)
            # every segment in the box is at least the box gap away
            if (xg * xg + yg * yg) * rd >= rn:
                continue
            li = node[4]
            if li < 0:
                n, d = seg_point_sqdist(
                    node[6], node[7], node[8], node[9], px, py
                )
                if n * rd < rn * d:
                    return True
            else:
                push(nodes[node[5]])
                push(nodes[li])
        return False


class BoxLevels:
    """Bounding boxes over runs of consecutive integer points.

    The lowest level boxes each run of `RUN` points; each level above
    merges neighbouring boxes pairwise, up to one root box.  `stab` walks
    the levels root first and keeps a box only if a line can pass within
    `pad` of it.  Every test is an exact integer sign test, so the query
    prunes and never decides: the caller still settles each candidate.
    """

    RUN = 8
    __slots__ = ("pts", "levels")

    def __init__(self, ipts: Sequence[IntPoint]):
        run = self.RUN
        boxes = []
        for k in range(0, len(ipts), run):
            xs = [x for x, _ in ipts[k : k + run]]
            ys = [y for _, y in ipts[k : k + run]]
            boxes.append((min(xs), max(xs), min(ys), max(ys)))
        levels = [boxes]
        while len(boxes) > 1:
            merged = [
                (
                    min(a[0], b[0]),
                    max(a[1], b[1]),
                    min(a[2], b[2]),
                    max(a[3], b[3]),
                )
                for a, b in zip(boxes[::2], boxes[1::2])
            ]
            if len(boxes) % 2:
                merged.append(boxes[-1])
            boxes = merged
            levels.append(boxes)
        levels.reverse()
        self.pts = ipts
        self.levels = levels

    def stab(self, a: int, b: int, c: int, pad: int) -> list[int]:
        """Indices of the points (x, y) whose square [x-pad, x+pad] x
        [y-pad, y+pad] meets the line a*x + b*y = c, in index order.

        Since a*x + b*y ranges over +-(|a|+|b|)*pad on such a square, a
        point qualifies iff |a*x + b*y - c| <= (|a|+|b|)*pad; with pad 0
        that is exact incidence.
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
        pts, run = self.pts, self.RUN
        return [
            k
            for i in live
            for k in range(i * run, min(i * run + run, len(pts)))
            if lo <= a * pts[k][0] + b * pts[k][1] <= hi
        ]


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


def weakly_separated_ints(
    a_ipts: Sequence[IntPoint], b_ipts: Sequence[IntPoint]
) -> bool:
    """No point of either polyline on a line spanned by consecutive
    points of the other.

    Each distinct spanned line stabs the other polyline's `BoxLevels`,
    so a line costs O(log N) box tests plus the points it passes near,
    not O(N) incidence tests; the integer equality at the leaves decides.
    """
    for pts, other in ((a_ipts, b_ipts), (b_ipts, a_ipts)):
        boxes = BoxLevels(pts)
        if any(boxes.stab(a, b, c, 0) for a, b, c in canonical_lines(other)):
            return False
    return True


def min_sqdist_exceeds(
    a_ipts: Sequence[IntPoint],
    b_index: PolylineIndex,
    threshold: Fraction,
    scale: int,
) -> bool:
    """True iff every segment pair of the two polylines is strictly
    farther apart than sqrt(threshold) (threshold in unscaled units)."""
    tn = threshold.numerator * scale * scale
    td = threshold.denominator
    radius = math.isqrt(tn // td) + 1
    for (ax, ay), (bx, by) in zip(a_ipts, a_ipts[1:]):
        xlo = (ax if ax <= bx else bx) - radius
        xhi = (ax if ax >= bx else bx) + radius
        ylo = (ay if ay <= by else by) - radius
        yhi = (ay if ay >= by else by) + radius
        for seg in b_index.overlapping(xlo, xhi):
            if seg[3] < ylo or seg[2] > yhi:
                continue
            n, d = seg_seg_sqdist(ax, ay, bx, by, seg[4], seg[5], seg[6], seg[7])
            if n * td <= tn * d:
                return False
    return True
