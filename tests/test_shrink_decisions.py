"""The shrink step's threshold decisions.

`shrink_first` classifies grid values by two exact threshold queries
instead of rounding a nearest distance.  These tests pin the query to
the exact distance, each threshold to the rounded rule it replaces, and
whole refinements to a reference shrink that still rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvemeet.refine as refine_module
from curvemeet import curved_pair, diagonal_pair, refine_sequence
from curvemeet._fastgeom import PolylineIndex, points_over_lcm, rescale
from curvemeet.errors import InvariantViolation, PreconditionViolated
from curvemeet.exact_geom import (
    Interval,
    Point,
    Segment,
    pow2,
    sq_dist_point_segment,
    sqrt_enclosure,
)
from curvemeet.parity import function_parity
from curvemeet.paths import dyadic_grid, n_approximation

F = Fraction

coords = st.integers(min_value=-40, max_value=40)
polylines = st.lists(st.tuples(coords, coords), min_size=2, max_size=12)


@given(
    poly=polylines,
    px=coords,
    py=coords,
    mode=st.sampled_from(["exact", "above", "random"]),
    r=st.fractions(min_value=0, max_value=8000, max_denominator=50),
    k=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=300, deadline=None)
def test_any_within_matches_exact_distance(poly, px, py, mode, r, k) -> None:
    idx = PolylineIndex(poly)
    q = idx.sq_dist_to_point(px, py)
    if mode == "exact":
        r = q
    elif mode == "above":
        r = q + F(1, 1000)
    # an unreduced ratio, as the shrink step passes it
    rn, rd = r.numerator * k, r.denominator * k
    assert idx.any_within(px, py, rn, rd) == (q < r)


@given(
    poly=st.lists(st.tuples(coords, coords), min_size=2, max_size=40),
    px=coords,
    py=coords,
    r=st.fractions(min_value=0, max_value=8000, max_denominator=50),
)
@settings(max_examples=300, deadline=None)
def test_distance_queries_match_brute_force(poly, px, py, r) -> None:
    # every segment measured, on the Fraction kernel
    p = Point(F(px), F(py))
    q = min(
        sq_dist_point_segment(p, Segment(Point(F(ax), F(ay)), Point(F(bx), F(by))))
        if (ax, ay) != (bx, by)
        else F((px - ax) ** 2 + (py - ay) ** 2)
        for (ax, ay), (bx, by) in zip(poly, poly[1:])
    )
    idx = PolylineIndex(poly)
    assert idx.sq_dist_to_point(px, py) == q
    assert idx.any_within(px, py, r.numerator, r.denominator) == (q < r)


near_thresholds = st.builds(
    lambda base, off: max(F(0), base + off),
    st.sampled_from([512**2, 513**2]),
    st.fractions(min_value=-3, max_value=3, max_denominator=64),
)


@given(
    v=st.one_of(
        st.fractions(min_value=0, max_value=600**2, max_denominator=10**6),
        near_thresholds,
    ),
    n=st.integers(min_value=0, max_value=40),
)
@example(v=F(512**2), n=0)
@example(v=F(513**2), n=0)
@example(v=F(512**2), n=17)
@example(v=F(513**2), n=17)
@settings(max_examples=400, deadline=None)
def test_thresholds_match_rounded_distance(v: Fraction, n: int) -> None:
    # v = q * 4^(n+10); the thresholds sit at v = 512^2 and v = 513^2
    q = v / 4 ** (n + 10)
    lo = sqrt_enclosure(q, n + 9).lo
    half = pow2(-n) / 2
    assert (lo < half) == (q < F(1, 4 ** (n + 1)))
    assert (lo <= half) == (q < F(513**2, 4 ** (n + 10)))


def common_scale(*point_groups):
    """The groups' numerators over one common denominator, and that
    denominator."""
    converted = [points_over_lcm(group) for group in point_groups]
    scale = math.lcm(*(d for d, _ in converted))
    return [list(rescale(ints, scale // d)) for d, ints in converted], scale


def _reference_shrink_first(
    f, g, i, j, n, *, effort=64, rng=None, skip_precondition_checks=False
) -> Interval:
    """The shrink step as it was before threshold queries: nearest
    squared distances, rounded by a square-root enclosure."""
    assert skip_precondition_checks
    eps = pow2(-n)
    grid = dyadic_grid(i.lo, i.hi, f.modulus(n + 4))
    q = n_approximation(g, j, n + 9)
    f_vals = [f.eval_approx(s, n + 9) for s in grid]
    (fv, qv), scale = common_scale(f_vals, list(q.points))
    idx = PolylineIndex(qv)
    sq_scale = F(scale * scale)
    ds = [
        sqrt_enclosure(idx.sq_dist_to_point(x, y) / sq_scale, n + 9).lo
        for x, y in fv
    ]
    half = eps / 2
    k = len(grid) - 1
    if ds[0] <= half or ds[k] <= half:
        raise PreconditionViolated("endpoint not clear")
    low = [d < half for d in ds]
    chosen = [0]
    chosen.extend(
        t for t in range(1, k) if not low[t] and (low[t - 1] or low[t + 1])
    )
    chosen.append(k)
    for a, b in zip(chosen, chosen[1:]):
        if b - a < 2 or not low[a + 1]:
            continue
        if not all(low[a + 1 : b]):
            raise InvariantViolation("mixed run")
        cand = Interval(grid[a], grid[b])
        if function_parity(f, g, cand, j, effort, n=n + 6, rng=rng) == 1:
            return cand
    raise InvariantViolation("no odd run")


@pytest.mark.parametrize("pair", [diagonal_pair, curved_pair])
def test_refinement_matches_rounded_reference(pair, monkeypatch) -> None:
    phi, psi = pair()
    cert = refine_sequence(phi, psi, 3)
    monkeypatch.setattr(refine_module, "shrink_first", _reference_shrink_first)
    reference = refine_sequence(phi, psi, 3)
    assert cert == reference
