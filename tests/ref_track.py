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

`ref_shrink_low` is the shrink step's low/high classification measured
against g's fine polyline over all of j, as the shrink step made it
before it evaluated g finely only near f's grid; `low_runs` turns its
list into the runs that `refine._shrink_decisions` returns.

`ref_full_points` is every base point of a track without jitter, as the
clearance probes, the parity sweep and the distance sides of the shrink
step and `verify_certificate` read them before they kept only the ends
of straight runs (`paths._turn_points`).

`ref_validate` is `TablePath.validate` with each sample pair's squared
distance in `Fraction` arithmetic, as it was before it read the samples'
integer numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from curvemeet import Track, dyadic_grid, n_approximation, pow2, sqrt_enclosure
from curvemeet._fastgeom import BoxLevels, pair_over_lcm
from curvemeet.errors import InvariantViolation, PreconditionViolated
from curvemeet.exact_geom import Point, ceil_log2
from curvemeet.parity import AlphaEnclosure
from curvemeet.paths import (
    _MODULUS_CHECKS,
    TablePath,
    _base_points,
    _turn_points,
    grid_values,
)
from curvemeet.segments import Line, orient
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


def ref_alpha_enclosure(f, g, i, j, n, pad=None, root=None) -> AlphaEnclosure:
    """The endpoint clearance between the n-approximation tracks of f on
    i and g on j, its square roots enclosed at precision root (n if not
    given), widened by pad per side (6 * 2^-n if not given: the error
    of a spiral vertex, 2^-n, plus the polygon-vs-curve error)."""
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
    root = n if root is None else root
    e1 = sqrt_enclosure(d_f_ends, root)
    e2 = sqrt_enclosure(d_g_ends, root)
    pad = 6 * pow2(-n) if pad is None else pad
    lo = min(e1.lo, e2.lo) - pad
    hi = min(e1.hi, e2.hi) + pad
    return AlphaEnclosure(max(Fraction(0), lo), hi, n)


def ref_full_points(f, i, n):
    """(sden, snums, vden, values): f at precision n+2 on the whole grid
    of a precision-n track on i, as integer numerators; `_base_points`,
    which `test_int_tracks` holds to `eval_approx`."""
    return _base_points(f, i, n)


def ref_shrink_low(f, g, i, j, n):
    """(sden, snums, low): f's shrink grid on i and which of its values
    are low, each value tested against one index over g's whole fine
    polyline on j; PreconditionViolated if an endpoint value is not
    clear."""
    g_den, gv = _turn_points(g, j, n + 5)[2:]
    sden, snums, f_den, fv = grid_values(f, i.lo, i.hi, f.modulus(n + 4), n + 9)
    fv, gv, den = pair_over_lcm(f_den, fv, g_den, gv)
    idx = BoxLevels(gv)
    sq_scale = den * den
    k = len(fv) - 1
    for x, y in (fv[0], fv[k]):
        if idx.any_within(x, y, 513 * 513 * sq_scale, 4 ** (n + 10)):
            raise PreconditionViolated(
                "an interval endpoint is not clear of the opposing image"
            )
    low = [False]
    low.extend(idx.any_within(x, y, sq_scale, 4 ** (n + 1)) for x, y in fv[1:k])
    low.append(False)
    return sden, snums, low


def low_runs(low):
    """(a, b) for each maximal run of low values a+1 to b-1: the
    candidate runs of `shrink_first`."""
    t = 1
    while t < len(low) - 1:
        if low[t]:
            a = t - 1
            while low[t]:
                t += 1
            yield a, t
        t += 1


def ref_validate(path: TablePath) -> None:
    """`TablePath.validate` on `Fraction` samples: PreconditionViolated
    with the same message, or None."""
    mods = [path.modulus(n) for n in range(_MODULUS_CHECKS + 1)]
    if any(m1 <= m0 for m0, m1 in zip(mods, mods[1:])):
        raise PreconditionViolated("modulus is not increasing")
    windows = [-(-path._pscale >> m) for m in mods]
    entries, pnums = path.entries, path._pnums
    for i, (ti, zi) in enumerate(entries):
        for j in range(i + 1, len(entries)):
            span = pnums[j] - pnums[i]
            if span >= windows[0]:
                break
            tj, zj = entries[j]
            sq = (zj - zi).sq_norm()
            if sq == 0:
                continue
            # smallest n >= 0 with 4^-n <= sq
            n = max(0, (ceil_log2(1 / sq) + 1) // 2)
            if n < _MODULUS_CHECKS and span < windows[n]:
                raise PreconditionViolated(
                    f"samples at {ti} and {tj} refute the modulus at n={n}"
                )
