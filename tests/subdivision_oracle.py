"""Floating-point Bezier intersection finder used as a test oracle.

Plain numerics, no shared code with the package: de Casteljau halving
with bounding-box pruning narrows parameter boxes, duplicates from
adjacent boxes are merged, and a Newton polish on the 2x2 system
finishes each crossing to machine precision.  `point_distance` bounds
the distance from a point to an arc by the same halving.
"""

from __future__ import annotations

import heapq
import math

Ctrl = tuple[tuple[float, float], ...]


def bezier_eval(ctrl: Ctrl, t: float) -> tuple[float, float]:
    (x0, y0), (x1, y1), (x2, y2) = ctrl
    u = 1.0 - t
    return (
        u * u * x0 + 2.0 * u * t * x1 + t * t * x2,
        u * u * y0 + 2.0 * u * t * y1 + t * t * y2,
    )


def bezier_deriv(ctrl: Ctrl, t: float) -> tuple[float, float]:
    (x0, y0), (x1, y1), (x2, y2) = ctrl
    u = 1.0 - t
    return (
        2.0 * (u * (x1 - x0) + t * (x2 - x1)),
        2.0 * (u * (y1 - y0) + t * (y2 - y1)),
    )


def _split(ctrl: Ctrl) -> tuple[Ctrl, Ctrl]:
    (x0, y0), (x1, y1), (x2, y2) = ctrl
    ax, ay = (x0 + x1) / 2, (y0 + y1) / 2
    bx, by = (x1 + x2) / 2, (y1 + y2) / 2
    mx, my = (ax + bx) / 2, (ay + by) / 2
    return (
        ((x0, y0), (ax, ay), (mx, my)),
        ((mx, my), (bx, by), (x2, y2)),
    )


def _boxes_meet(c1: Ctrl, c2: Ctrl) -> bool:
    # control polygons bound the curves, so disjoint control boxes
    # guarantee disjoint arcs
    x1 = [p[0] for p in c1]
    y1 = [p[1] for p in c1]
    x2 = [p[0] for p in c2]
    y2 = [p[1] for p in c2]
    return (
        min(x1) <= max(x2)
        and min(x2) <= max(x1)
        and min(y1) <= max(y2)
        and min(y2) <= max(y1)
    )


def _newton(c1: Ctrl, c2: Ctrl, s: float, t: float) -> tuple[float, float]:
    for _ in range(40):
        p = bezier_eval(c1, s)
        q = bezier_eval(c2, t)
        fx, fy = p[0] - q[0], p[1] - q[1]
        if abs(fx) < 1e-15 and abs(fy) < 1e-15:
            break
        dsx, dsy = bezier_deriv(c1, s)
        dtx, dty = bezier_deriv(c2, t)
        det = dsx * (-dty) - (-dtx) * dsy
        if det == 0.0:
            break
        ds = (fx * (-dty) - (-dtx) * fy) / det
        dt = (dsx * fy - fx * dsy) / det
        s -= ds
        t -= dt
    return s, t


def bezier_intersections(
    c1: Ctrl, c2: Ctrl, tol: float = 1e-6
) -> list[tuple[float, float, tuple[float, float]]]:
    """Crossing list as (s, t, point), each polished by Newton."""
    raw: list[tuple[float, float]] = []
    stack = [(c1, 0.0, 1.0, c2, 0.0, 1.0)]
    while stack:
        a, s0, s1, b, t0, t1 = stack.pop()
        if not _boxes_meet(a, b):
            continue
        if s1 - s0 < tol and t1 - t0 < tol:
            raw.append(((s0 + s1) / 2, (t0 + t1) / 2))
            continue
        if s1 - s0 >= t1 - t0:
            sm = (s0 + s1) / 2
            lo, hi = _split(a)
            stack.append((lo, s0, sm, b, t0, t1))
            stack.append((hi, sm, s1, b, t0, t1))
        else:
            tm = (t0 + t1) / 2
            lo, hi = _split(b)
            stack.append((a, s0, s1, lo, t0, tm))
            stack.append((a, s0, s1, hi, tm, t1))
    return _finish(c1, c2, raw)


def _finish(
    c1: Ctrl, c2: Ctrl, raw: list[tuple[float, float]]
) -> list[tuple[float, float, tuple[float, float]]]:
    out: list[tuple[float, float, tuple[float, float]]] = []
    for s, t in raw:
        s, t = _newton(c1, c2, s, t)
        if any(abs(s - s2) < 1e-4 and abs(t - t2) < 1e-4 for s2, t2, _ in out):
            continue
        out.append((s, t, bezier_eval(c1, s)))
    out.sort()
    return out


def sub_curve(ctrl: Ctrl, t0: float, t1: float) -> Ctrl:
    """The control points of the arc of ctrl over [t0, t1]: the blossom
    at (t0, t0), (t0, t1) and (t1, t1)."""

    def blossom(a: float, b: float) -> tuple[float, float]:
        w0, w1, w2 = (1 - a) * (1 - b), (1 - a) * b + a * (1 - b), a * b
        return tuple(w0 * p + w1 * q + w2 * r for p, q, r in zip(*ctrl))

    return blossom(t0, t0), blossom(t0, t1), blossom(t1, t1)


def _seg_dist(z: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    """The distance from z to the segment a-b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    u = 0.0 if dd == 0.0 else ((z[0] - a[0]) * dx + (z[1] - a[1]) * dy) / dd
    u = min(1.0, max(0.0, u))
    return math.hypot(z[0] - a[0] - u * dx, z[1] - a[1] - u * dy)


def point_distance(
    ctrl: Ctrl, z: tuple[float, float], tol: float = 1e-9
) -> tuple[float, float]:
    """(lo, hi) around the distance from z to the arc ctrl, best first:
    a piece's arc lies in its control triangle, so within the distance
    of its middle control point from its chord, and z is at least its
    distance to the chord less that far from it; hi is the least
    distance from z to a piece's end.  The piece with the least bound
    is halved until its parameter width is below tol; that bound is
    lo."""
    hi = min(math.dist(z, ctrl[0]), math.dist(z, ctrl[2]))
    heap = [(0.0, 1.0, ctrl)]
    while True:
        lo, width, c = heapq.heappop(heap)
        if width < tol or lo >= hi:
            return min(lo, hi), hi
        for half in _split(c):
            hi = min(hi, math.dist(z, half[2]))
            bound = _seg_dist(z, half[0], half[2]) - _seg_dist(half[1], half[0], half[2])
            heapq.heappush(heap, (max(0.0, bound), width / 2, half))
