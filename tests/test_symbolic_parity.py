"""Crossing counts under the symbolic translation t = (eps, eps^2).

`function_parity` counts the crossings of two polylines with the second
one translated by t, every orientation sign decided by
`translated_sign`.  Checked here by brute force on small integer
polylines that share vertices, overlap along lines and repeat points:

* the sign rule against the `Fraction` value of the orientation at one
  rational eps small enough for the coordinates;
* the sweep's count against an all-pairs count of the polylines
  translated by that concrete eps, in `Fraction`s;
* the sweep's parity against the paper's route: the second polyline
  moved by `perturb_to_separated` and counted by `crossing_count`.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvemeet import crossing_count, make_track, perturb_to_separated
from curvemeet.parity import _sweep, translated_sign

R = 3  # inner coordinates range over -R ... R
FAR = R + 2  # the coordinate of the endpoints held off the other polyline
# every orientation polynomial O + A*eps + B*eps^2 here has integers
# |A|, |B| <= 2 * FAR, so at eps = 1/(8 * FAR + 8) its sign is the sign
# of its first nonzero coefficient
EPS = Fraction(1, 8 * FAR + 8)
T = (EPS, EPS * EPS)

coord = st.integers(-R, R)
point = st.tuples(coord, coord)


@st.composite
def polyline_pair(draw, clear_ends: bool = False):
    """Two polylines of 2 to 7 points; the second reuses points of the
    first (shared vertices), and either may repeat a point.  With
    clear_ends, the first starts and ends at x = -FAR and x = FAR and the
    second at y = -FAR and y = FAR, where the other polyline never comes:
    no endpoint lies on the other polyline."""
    p = draw(st.lists(point, min_size=2, max_size=7))
    q = draw(
        st.lists(st.one_of(point, st.sampled_from(p)), min_size=2, max_size=7)
    )
    if clear_ends:
        p = [(-FAR, draw(coord)), *p, (FAR, draw(coord))]
        q = [(draw(coord), -FAR), *q, (draw(coord), FAR)]
    return p, q


def _dedup(pts):
    return [z for k, z in enumerate(pts) if k == 0 or z != pts[k - 1]]


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _symbolic_count(p, q) -> int:
    return _sweep(_track(p), _track(q)).count


def _track(pts):
    return make_track(list(enumerate(pts)))


def _translated_count(p, q) -> int:
    """Proper crossings of p and q + T, all pairs, in Fractions."""
    qt = [(x + T[0], y + T[1]) for x, y in q]
    count = 0
    for a, b in zip(p, p[1:]):
        for c, d in zip(qt, qt[1:]):
            signs = (
                _cross(*a, *b, *c),
                _cross(*a, *b, *d),
                _cross(*c, *d, *a),
                _cross(*c, *d, *b),
            )
            assert 0 not in signs  # t is generic
            if signs[0] * signs[1] < 0 and signs[2] * signs[3] < 0:
                count += 1
    return count


@settings(max_examples=400, deadline=None)
@given(point, point, point)
def test_sign_rule_matches_the_fraction_sign(u, v, c) -> None:
    assume(u != v)
    ex, ey = v[0] - u[0], v[1] - u[1]
    # the point c + t against the segment u -> v
    o = _cross(*u, *v, *c)
    exact = _cross(*u, *v, c[0] + T[0], c[1] + T[1])
    assert exact != 0
    assert _sign(translated_sign(o, ex, ey)) == _sign(exact)
    # the mirrored form: the point c against the segment (u + t) -> (v + t)
    exact = _cross(u[0] + T[0], u[1] + T[1], v[0] + T[0], v[1] + T[1], *c)
    assert exact != 0
    assert _sign(translated_sign(o, -ex, -ey)) == _sign(exact)


@settings(max_examples=300, deadline=None)
@given(polyline_pair())
def test_sweep_counts_the_polylines_translated_by_a_small_eps(pair) -> None:
    p, q = map(_dedup, pair)
    assume(len(p) > 1 and len(q) > 1)
    assert _symbolic_count(p, q) == _translated_count(p, q)


@settings(max_examples=300, deadline=None)
@given(polyline_pair(clear_ends=True))
def test_symbolic_parity_matches_the_perturbed_separated_parity(pair) -> None:
    # the parity is defined as no endpoint lies on the other polyline;
    # every endpoint is then at least 2 from it, farther than the
    # perturbation moves a vertex
    p, q = map(_dedup, pair)
    tp, tq = _track(p), _track(q)
    moved = perturb_to_separated(tq, tp, tp, Fraction(1, 16))
    assert _symbolic_count(p, q) % 2 == crossing_count(tp, moved).parity
