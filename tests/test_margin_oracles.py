"""Window parity at the working precision, against independent oracles.

`function_parity` counts at the precision n that its clearance floor lo
certifies with 2 * 2^-n < lo, below the paper's margin 16 * 2^-n < lo.
Here its answers on seeded random windows are compared with two oracles
that share no code with the package:

* on random polyline pairs, the parity of the exact polylines cut to the
  windows, from the ball classifier (`ball_oracle.ball_parity`);
* on random quadratic Bezier pairs, the number of crossings inside the
  window pair, from the float subdivision solver
  (`subdivision_oracle.bezier_intersections`).  No crossing may lie
  within the solver's tolerance of a window's edge, where its count
  would be ambiguous: a certified clearance keeps crossings away from
  the edges.

Windows whose clearance is not certified up to precision `EFFORT` are
left out; enough windows must remain, and at least ten of them must
certify n in the regime the 2-margin opens, 2 * 2^-n < lo <= 16 * 2^-n.
"""

from __future__ import annotations

import random
from fractions import Fraction

from curvemeet import PolylinePath, QuadBezierPath, function_parity, interval, pow2, pt
from curvemeet.errors import EffortExhausted
from curvemeet.parity import working_precision

from ball_oracle import ball_parity
from subdivision_oracle import bezier_intersections

F = Fraction
EFFORT = 14
TOL = 1e-9  # the subdivision solver's box width


def _rand(rng: random.Random, den: int) -> Fraction:
    return F(rng.randint(0, den), den)


def _across(points: list, across: bool) -> list:
    """The points, first and last moved onto the left and right edges of
    the unit square, or swapped to the bottom and top edges if not
    across; so a path through them from one edge to the opposite one
    crosses any such path between the other two edges an odd number of
    times."""
    (_, y0), *inner, (_, y1) = points
    out = [(F(0), y0), *inner, (F(1), y1)]
    return out if across else [(y, x) for x, y in out]


def _polyline(rng: random.Random, across: bool) -> list:
    # different prime denominators keep each polyline's vertices off
    # the other, which the ball classifier needs
    den = 97 if across else 89
    inner = sorted({F(rng.randint(1, 95), 96) for _ in range(rng.randint(2, 5))})
    ts = (F(0), *inner, F(1))
    points = [(_rand(rng, den), _rand(rng, den)) for _ in ts]
    return list(zip(ts, _across(points, across)))


def _at(poly, t: Fraction) -> tuple[Fraction, Fraction]:
    for (t0, (x0, y0)), (t1, (x1, y1)) in zip(poly, poly[1:]):
        if t0 <= t <= t1:
            u = (t - t0) / (t1 - t0)
            return x0 + u * (x1 - x0), y0 + u * (y1 - y0)
    raise ValueError(f"{t} outside the polyline")


def _cut(poly, lo: Fraction, hi: Fraction):
    """The exact polyline on [lo, hi], as (parameter, point) entries."""
    inner = [(t, z) for t, z in poly if lo < t < hi]
    return [(lo, _at(poly, lo)), *inner, (hi, _at(poly, hi))]


def _window(rng: random.Random):
    a, b = sorted(rng.sample(range(0, 49), 2))
    return interval(F(a, 48), F(b, 48))


def _certified(f, g, i, j, regime: list) -> int | None:
    """function_parity(f, g, i, j), or None if the clearance is not
    certified up to precision EFFORT; notes whether the working
    precision lies in the regime 2 * 2^-n < lo <= 16 * 2^-n."""
    try:
        enc, n = working_precision(f, g, i, j, effort=EFFORT)
        parity = function_parity(f, g, i, j, effort=EFFORT)
    except EffortExhausted:
        return None
    assert 2 * pow2(-n) < enc.lo
    regime.append(enc.lo <= 16 * pow2(-n))
    return parity


def test_polyline_windows_match_the_ball_classifier() -> None:
    rng = random.Random(3407)
    regime: list[bool] = []
    odd = 0
    for _ in range(12):
        p, q = _polyline(rng, True), _polyline(rng, False)
        f, g = PolylinePath(p), PolylinePath(q)
        for _ in range(16):
            i, j = _window(rng), _window(rng)
            got = _certified(f, g, i, j, regime)
            if got is None:
                continue
            want = ball_parity(_cut(p, i.lo, i.hi), _cut(q, j.lo, j.hi))
            assert got == want, (p, q, i, j)
            odd += want
    assert len(regime) >= 150 and odd >= 20
    assert sum(regime) >= 10


def _ctrl(rng: random.Random, across: bool) -> tuple:
    return tuple(_across([(_rand(rng, 16), _rand(rng, 16)) for _ in range(3)], across))


def _counted(s: float, t: float, i, j) -> bool:
    """Whether the crossing at (s, t) lies in i x j, asserting that it
    is not within the solver's tolerance of the pair's boundary."""
    eps = 1e3 * TOL
    near = [float(w.lo) - eps <= x <= float(w.hi) + eps for x, w in ((s, i), (t, j))]
    if not all(near):
        return False
    for x, w in ((s, i), (t, j)):
        assert float(w.lo) + eps < x < float(w.hi) - eps, (s, t, i, j)
    return True


def test_bezier_windows_match_the_subdivision_solver() -> None:
    rng = random.Random(3411)
    regime: list[bool] = []
    odd = 0
    for _ in range(10):
        c1, c2 = _ctrl(rng, True), _ctrl(rng, False)
        f, g = (QuadBezierPath(*(pt(x, y) for x, y in c)) for c in (c1, c2))
        floats = [tuple((float(x), float(y)) for x, y in c) for c in (c1, c2)]
        found = bezier_intersections(*floats, tol=TOL)
        for _ in range(12):
            i, j = _window(rng), _window(rng)
            got = _certified(f, g, i, j, regime)
            if got is None:
                continue
            want = sum(_counted(s, t, i, j) for s, t, _ in found) % 2
            assert got == want, (c1, c2, i, j)
            odd += want
    assert len(regime) >= 100 and odd >= 15
    assert sum(regime) >= 10
