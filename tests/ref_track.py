"""Rational references for the integer vertex placement in `track.py`.

`spiral_search`, `perturb_to_separated` and `n_approximation_pair` work
on integer numerators over one denominator.  These are the `Fraction`
forms they replaced: a spiral over `Point` candidates, a perturbation
that tests each candidate with `Line.contains` and `orient` against
every spanned line and every vertex of the other tracks, and a track
pair whose second track is built vertex by vertex against all of the
first.  Tests require equal results.

`ref_alpha_enclosure` is the clearance enclosure measured between two
`n_approximation` tracks, spiral included, as `parity.alpha_enclosure`
measured it before it moved to the base points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from curvemeet import Track, dyadic_grid, n_approximation, pow2, sqrt_enclosure
from curvemeet._fastgeom import BoxLevels
from curvemeet.errors import InvariantViolation
from curvemeet.exact_geom import Line, Point, orient
from curvemeet.parity import AlphaEnclosure
from curvemeet.track import SPIRAL_LEVELS, common_verts, line_set, vertex_set


def _ring_offsets(r: int) -> list[tuple[int, int]]:
    """The grid offsets at Chebyshev distance r, counterclockwise from
    (r, 0)."""
    if r == 0:
        return [(0, 0)]
    out = [(r, t) for t in range(0, r)]
    out += [(t, r) for t in range(r, -r, -1)]
    out += [(-r, t) for t in range(r, -r, -1)]
    out += [(t, -r) for t in range(-r, r)]
    out += [(r, t) for t in range(-r, 0)]
    return out


def ref_spiral_search(
    center: Point,
    pitch: Fraction,
    sq_budget: Fraction,
    accept: Callable[[Point], bool],
) -> Point:
    """First acceptable point of a dyadic grid spiralling out from
    center: square rings in a fixed order, squared offset below
    sq_budget, the pitch halved after each exhausted ring scan."""
    if pitch <= 0 or sq_budget <= 0:
        raise ValueError("pitch and budget must be positive")
    for level in range(SPIRAL_LEVELS):
        if level:
            pitch = pitch / 2
        limit = Fraction(sq_budget) / (pitch * pitch)
        r = 0
        while True:
            in_budget = False
            for i, j in _ring_offsets(r):
                if i * i + j * j < limit:
                    in_budget = True
                    cand = Point(center.x + i * pitch, center.y + j * pitch)
                    if accept(cand):
                        return cand
            if r > 0 and not in_budget:
                break
            r += 1
    raise InvariantViolation("spiral search exhausted twelve pitch refinements")


def ref_separated_points(bases, others, pitch, sq_budget) -> list[Point]:
    """Each base, or the first point of its spiral, that differs from the
    point before it, lies on no spanned line of a track in others, and
    spans with the point before it a line through no vertex of one."""
    avoid_lines = frozenset().union(*map(line_set, others))
    avoid_points = frozenset().union(*map(vertex_set, others))
    out: list[Point] = []

    def acceptable(cand: Point) -> bool:
        if any(line.contains(cand) for line in avoid_lines):
            return False
        if out:
            prev = out[-1]
            if cand == prev:
                return False
            if any(orient(prev, cand, v) == 0 for v in avoid_points):
                return False
        return True

    for base in bases:
        out.append(ref_spiral_search(base, pitch, sq_budget, acceptable))
    return out


def ref_perturb_to_separated(
    p: Track, q: Track, qprime: Track, delta: Fraction
) -> Track:
    """p's vertices moved less than delta, by the spiral of pitch delta/8,
    until weakly separated from q and qprime."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    points = ref_separated_points(p.points, (q, qprime), delta / 8, delta * delta)
    return Track(tuple(zip(p.params, points)))


def ref_vertex_track(f, iv, n, accept_extra, rng) -> Track:
    """The vertex-by-vertex construction: jittered base, then a spiral
    until the candidate differs from its predecessor and is accepted."""
    grid = dyadic_grid(iv.lo, iv.hi, f.modulus(n))
    pitch = pow2(-(n + 8))
    sq_budget = pow2(-(n + 2)) ** 2
    out: list[Point] = []
    for s in grid:
        base = f.eval_approx(s, n + 2)
        if rng is not None:
            i = rng.randint(-32, 32)
            j = rng.randint(-32, 32)
            base = Point(base.x + i * pitch, base.y + j * pitch)
        prev = out[-1] if out else None

        def ok(cand: Point, _prev=prev) -> bool:
            return (_prev is None or cand != _prev) and accept_extra(cand, _prev)

        out.append(base if ok(base) else ref_spiral_search(base, pitch, sq_budget, ok))
    return Track(tuple(zip(grid, out)))


def ref_pair(f, g, i, j, n, rng) -> tuple[Track, Track]:
    """The former `n_approximation_pair`: the `clears` closure tests every
    line of p and, through `Line.through`, every vertex of p."""
    p = ref_vertex_track(f, i, n, lambda c, prev: True, rng)
    scale = 1
    for v in p.points:
        scale = math.lcm(scale, v.x.denominator, v.y.denominator)
    p_scaled = [
        (
            v.x.numerator * (scale // v.x.denominator),
            v.y.numerator * (scale // v.y.denominator),
        )
        for v in p.points
    ]
    lines_p = [(ln.A, ln.B, ln.C) for ln in line_set(p)]

    def clears(cand: Point, prev: Point | None) -> bool:
        xn, xd = cand.x.numerator, cand.x.denominator
        yn, yd = cand.y.numerator, cand.y.denominator
        u, v, w = xn * yd, yn * xd, xd * yd
        for a, b, c in lines_p:
            if a * u + b * v == c * w:
                return False
        if prev is not None:
            ln = Line.through(prev, cand)
            a, b, c_scaled = ln.A, ln.B, ln.C * scale
            for vx, vy in p_scaled:
                if a * vx + b * vy == c_scaled:
                    return False
        return True

    return p, ref_vertex_track(g, j, n, clears, rng)


def ref_alpha_enclosure(f, g, i, j, n) -> AlphaEnclosure:
    """The endpoint clearance between the n-approximation tracks of f on
    i and g on j, widened by 6 * 2^-n per side."""
    p = n_approximation(f, i, n)
    q = n_approximation(g, j, n)
    pi, qi, den = common_verts(p, q)
    sq_scale = Fraction(den * den)
    qidx = BoxLevels(qi)
    pidx = BoxLevels(pi)
    d_f_ends = min(
        qidx.sq_dist_to_point(*pi[0]), qidx.sq_dist_to_point(*pi[-1])
    ) / sq_scale
    d_g_ends = min(
        pidx.sq_dist_to_point(*qi[0]), pidx.sq_dist_to_point(*qi[-1])
    ) / sq_scale
    e1 = sqrt_enclosure(d_f_ends, n)
    e2 = sqrt_enclosure(d_g_ends, n)
    pad = 6 * pow2(-n)
    lo = min(e1.lo, e2.lo) - pad
    hi = min(e1.hi, e2.hi) + pad
    return AlphaEnclosure(max(Fraction(0), lo), hi, n)
