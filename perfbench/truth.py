"""Independent ground truth for the benchmark's correctness checks.

Nothing here imports curvemeet.  The curves are restated from their
definitions: exact rational polylines for the diagonal and three-crossing
pairs, float quadratic Beziers for the curved pair.  Checkers take plain
tuples of Fractions and return a list of failure messages (empty when the
answer is right).
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction

# ------------------------------------------------------------ the curves

# Polylines are tuples of (t, x, y).  Extended curves carry the straight
# tails: the lower curve runs along y=0 before t=0 and along y=1 after t=1,
# the upper one the other way round.
DIAG_PHI = ((Q(-1), Q(-1), Q(0)), (Q(0), Q(0), Q(0)), (Q(1), Q(1), Q(1)), (Q(2), Q(2), Q(1)))
DIAG_PSI = ((Q(-1), Q(-1), Q(1)), (Q(0), Q(0), Q(1)), (Q(1), Q(1), Q(0)), (Q(2), Q(2), Q(0)))

# Three-crossing pair, used on [0, 1] without tails.
ZIGZAG_PHI = (
    (Q(0), Q(0), Q(0)),
    (Q(1, 3), Q(4, 5), Q(2, 5)),
    (Q(2, 3), Q(1, 5), Q(3, 5)),
    (Q(1), Q(1), Q(1)),
)
ZIGZAG_PSI = ((Q(0), Q(0), Q(1)), (Q(1), Q(1), Q(0)))

# Control points of the curved pair's inner Beziers.
BEZ_PHI = ((0.0, 0.0), (0.2, 0.8), (1.0, 1.0))
BEZ_PSI = ((0.0, 1.0), (0.5, 0.1), (1.0, 0.0))


def pl_eval(curve, t):
    """Exact point of a polyline at parameter t (Fractions in, out)."""
    for (t0, x0, y0), (t1, x1, y1) in zip(curve, curve[1:]):
        if t0 <= t <= t1:
            u = (t - t0) / (t1 - t0)
            return (x0 + (x1 - x0) * u, y0 + (y1 - y0) * u)
    raise ValueError(f"parameter {t} outside the polyline")


def pl_pieces(curve, lo, hi):
    """Segments ((ax, ay), (bx, by)) that make up the image over [lo, hi]."""
    cuts = [lo] + [t for t, _, _ in curve if lo < t < hi] + [hi]
    pts = [pl_eval(curve, t) for t in cuts]
    return [(a, b) for a, b in zip(pts, pts[1:]) if a != b]


def _sq_dist_point_seg(p, seg):
    (ax, ay), (bx, by) = seg
    wx, wy = bx - ax, by - ay
    vx, vy = p[0] - ax, p[1] - ay
    dot = vx * wx + vy * wy
    ww = wx * wx + wy * wy
    if dot <= 0 or ww == 0:
        return vx * vx + vy * vy
    if dot >= ww:
        ux, uy = p[0] - bx, p[1] - by
        return ux * ux + uy * uy
    return (vx * vx + vy * vy) - dot * dot / ww


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pl_crossings(c1, c2):
    """Exact proper crossings (s, t, point) of two polylines."""
    out = []
    for (s0, *p0), (s1, *p1) in zip(c1, c1[1:]):
        for (t0, *q0), (t1, *q1) in zip(c2, c2[1:]):
            o1, o2 = _cross(p0, p1, q0), _cross(p0, p1, q1)
            o3, o4 = _cross(q0, q1, p0), _cross(q0, q1, p1)
            if o1 * o2 < 0 and o3 * o4 < 0:
                u = o3 / (o3 - o4)
                v = o1 / (o1 - o2)
                point = (p0[0] + (p1[0] - p0[0]) * u, p0[1] + (p1[1] - p0[1]) * u)
                out.append((s0 + (s1 - s0) * u, t0 + (t1 - t0) * v, point))
    return out


def _bez(ctrl, t):
    (x0, y0), (x1, y1), (x2, y2) = ctrl
    u = 1.0 - t
    return (u * u * x0 + 2 * u * t * x1 + t * t * x2, u * u * y0 + 2 * u * t * y1 + t * t * y2)


def _bez_d(ctrl, t):
    (x0, y0), (x1, y1), (x2, y2) = ctrl
    return (2 * (1 - t) * (x1 - x0) + 2 * t * (x2 - x1), 2 * (1 - t) * (y1 - y0) + 2 * t * (y2 - y1))


def curved_phi(t):
    """Extended first curve of the curved pair, in floats."""
    if t <= 0:
        return (t, 0.0)
    if t >= 1:
        return (t, 1.0)
    return _bez(BEZ_PHI, t)


def curved_psi(t):
    if t <= 0:
        return (t, 1.0)
    if t >= 1:
        return (t, 0.0)
    return _bez(BEZ_PSI, t)


def bezier_crossing():
    """(s*, t*, (x*, y*)) of the curved pair, by grid search then Newton."""
    best = None
    k = 64
    for i in range(1, k):
        for j in range(1, k):
            a, b = _bez(BEZ_PHI, i / k), _bez(BEZ_PSI, j / k)
            d = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
            if best is None or d < best[0]:
                best = (d, i / k, j / k)
    _, s, t = best
    for _ in range(60):
        a, b = _bez(BEZ_PHI, s), _bez(BEZ_PSI, t)
        da, db = _bez_d(BEZ_PHI, s), _bez_d(BEZ_PSI, t)
        rx, ry = b[0] - a[0], b[1] - a[1]
        # solve da*ds - db*dt = b - a
        det = -da[0] * db[1] + db[0] * da[1]
        ds = (-rx * db[1] + db[0] * ry) / det
        dt = (da[0] * ry - da[1] * rx) / det
        s, t = s + ds, t + dt
        if abs(ds) + abs(dt) < 1e-17:
            break
    a, b = _bez(BEZ_PHI, s), _bez(BEZ_PSI, t)
    if math.hypot(a[0] - b[0], a[1] - b[1]) > 1e-13 or not (0 < s < 1 and 0 < t < 1):
        raise ArithmeticError("Newton did not converge to the curved crossing")
    return s, t, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


# --------------------------------------------------- float distances


def _float_curve(curve):
    if callable(curve):
        return curve
    knots = [tuple(float(c) for c in row) for row in curve]

    def point(t):
        for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
            if t <= t1 or t1 == knots[-1][0]:
                u = (t - t0) / (t1 - t0)
                return (x0 + (x1 - x0) * u, y0 + (y1 - y0) * u)

    return point


def _kinks(curve, lo, hi):
    if callable(curve):
        return [t for t in (0.0, 1.0) if lo < t < hi]
    return [float(t) for t, _, _ in curve if lo < t < hi]


def arc_samples(curve, lo, hi, k=128):
    """Parameters and points sampling a curve over [lo, hi], kinks included."""
    fn = _float_curve(curve)
    lo, hi = float(lo), float(hi)
    ts = sorted(set([lo + (hi - lo) * i / k for i in range(k + 1)] + _kinks(curve, lo, hi)))
    return ts, [fn(t) for t in ts]


def dist_point_arc(curve, lo, hi, p, k=128):
    """Distance from p to the image of [lo, hi], to about 1e-9."""
    fn = _float_curve(curve)
    ts, pts = arc_samples(curve, lo, hi, k)

    def d2(t):
        x, y = fn(t)
        return (x - p[0]) ** 2 + (y - p[1]) ** 2

    i = min(range(len(ts)), key=lambda m: (pts[m][0] - p[0]) ** 2 + (pts[m][1] - p[1]) ** 2)
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    best = d2(ts[i])
    for _ in range(80):  # golden-section search on the bracketing pieces
        m1, m2 = a + (b - a) * 0.381966, a + (b - a) * 0.618034
        if d2(m1) < d2(m2):
            b = m2
        else:
            a = m1
    return math.sqrt(min(best, d2((a + b) / 2)))


def clearance(c1, c2, i, j):
    """Endpoint clearance of window i x j: the smallest distance from an
    endpoint value of one curve to the other curve's image."""
    f1, f2 = _float_curve(c1), _float_curve(c2)
    return min(
        dist_point_arc(c2, j[0], j[1], f1(float(i[0]))),
        dist_point_arc(c2, j[0], j[1], f1(float(i[1]))),
        dist_point_arc(c1, i[0], i[1], f2(float(j[0]))),
        dist_point_arc(c1, i[0], i[1], f2(float(j[1]))),
    )


def image_gap(c1, c2, i, j, k=64):
    """Smallest distance between sampled images (an upper estimate)."""
    _, a = arc_samples(c1, i[0], i[1], k)
    _, b = arc_samples(c2, j[0], j[1], k)
    return math.sqrt(min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p in a for q in b))


# ---------------------------------------------------------- checkers


def _inside(x, iv, tol=0):
    return iv[0] - tol <= x <= iv[1] + tol


def _covered(pieces_a, pieces_b, r):
    """True if every point of the pieces_a images lies within r of pieces_b.

    Sufficient test: each piece of a must lie in the r-neighbourhood of a
    single piece of b.  Distance to a segment is convex along a segment,
    so checking the two endpoints decides that exactly.
    """
    r2 = r * r
    for a in pieces_a:
        if not any(all(_sq_dist_point_seg(p, b) <= r2 for p in a) for b in pieces_b):
            return False
    return True


def check_chain(records, c1, c2):
    """Exact check of a certificate's neighbourhood chain on polylines.

    records: ((m, (ilo, ihi), (jlo, jhi)), ...).  For m >= 1 the first image
    over I_m lies within 2^-(m-1) of the second over J_(m-1), the second over
    J_m within 2^-m of the first over I_m, and the intervals are nested.
    """
    errors = []
    for expected, (m, _, _) in enumerate(records):
        if m != expected:
            errors.append(f"record levels do not count up at {expected}")
    for (_, i0, j0), (m, i1, j1) in zip(records, records[1:]):
        if not (i0[0] <= i1[0] <= i1[1] <= i0[1] and j0[0] <= j1[0] <= j1[1] <= j0[1]):
            errors.append(f"record {m} is not nested in record {m - 1}")
            continue
        if not _covered(pl_pieces(c1, *i1), pl_pieces(c2, *j0), Q(1, 2 ** (m - 1))):
            errors.append(f"first image of record {m} leaves the 2^-{m - 1} neighbourhood")
        if not _covered(pl_pieces(c2, *j1), pl_pieces(c1, *i1), Q(1, 2**m)):
            errors.append(f"second image of record {m} leaves the 2^-{m} neighbourhood")
    return errors


def check_ball(s_phi, s_psi, ball, s, t, p, tol=0):
    """The crossing (s, t, p) lies in S_phi x S_psi and in the ball."""
    errors = []
    if not _inside(s, s_phi, tol):
        errors.append(f"S_phi {s_phi} misses the crossing parameter {s}")
    if not _inside(t, s_psi, tol):
        errors.append(f"S_psi {s_psi} misses the crossing parameter {t}")
    (cx, cy), r = ball
    if tol:
        if math.hypot(float(cx) - p[0], float(cy) - p[1]) > float(r) + tol:
            errors.append("the ball misses the crossing point")
    elif (cx - p[0]) ** 2 + (cy - p[1]) ** 2 > r * r:
        errors.append("the ball misses the crossing point")
    return errors


def true_count(crossings, i, j):
    """Crossings whose parameter pair lies inside the window i x j."""
    return sum(1 for s, t, _ in crossings if _inside(s, i) and _inside(t, j))


def check_parity(crossings, i, j, parity):
    want = true_count(crossings, i, j) % 2
    return [] if parity == want else [f"parity {parity} on {i} x {j}, true parity {want}"]


def check_roundtrip(before, after):
    """parse(emit(c)) must give back the same records and final intervals."""
    return [] if before == after else ["parse_certificate does not invert emit_certificate"]
