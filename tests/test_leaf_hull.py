"""The leaf layout of `BoxLevels` and the hull of some of its leaves.

`BoxLevels.span` and `spans` are the only readers of the leaf layout
outside `_fastgeom`; they are checked here against `_leaf` on random
polylines of 1 to 70 points, the short last leaf and merged neighbours
included.  `paths._leaf_hull`, the window that the parity sweep near a
probe and the shrink step's run checks count on, is checked three ways:
leaves holding both ends of a window give the window itself, every
other end is a point of the curve's grid or an end of the window, and
the window holds the parameter of every point the leaves box.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from curvemeet import PolylinePath, Side, curved_pair, diagonal_pair, extend, interval
from curvemeet._fastgeom import BoxLevels
from curvemeet.exact_geom import Interval
from curvemeet.paths import _leaf_hull, _turn_points, grid_values

F = Fraction


def _points(rng: random.Random, size: int) -> list:
    """size distinct integer points, so equal slices mean equal indices."""
    return [(k, rng.randint(-50, 50)) for k in range(size)]


def _runs(leaves: set) -> list:
    """The maximal runs c..d of consecutive leaf numbers, in order."""
    runs: list = []
    for c in sorted(leaves):
        if runs and runs[-1][1] == c - 1:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    return runs


@pytest.mark.parametrize("size", range(1, 71))
def test_spans_are_the_points_of_the_leaves(size) -> None:
    rng = random.Random(size)
    levels = BoxLevels(_points(rng, size))
    count = len(levels.levels[-1])
    for k in range(count):
        a, b = levels.span(k)
        assert levels.pts[a : b + 1] == levels._leaf(k)
        assert (k == count - 1) == (b == size - 1)
    # the leaves cover every point, neighbours sharing one
    assert levels.spans(range(count)) == [(0, size - 1)]
    for _ in range(20):
        leaves = {k for k in range(count) if rng.random() < 0.5} or {0}
        # repeats and any iterable are accepted, as near pairs give them
        got = levels.spans(iter([*leaves, *leaves]))
        want = [(levels.span(c)[0], levels.span(d)[1]) for c, d in _runs(leaves)]
        assert got == want
        covered = {p for a, b in got for p in range(a, b + 1)}
        boxed = [levels.span(k) for k in leaves]
        assert covered == {p for a, b in boxed for p in range(a, b + 1)}
        # runs are maximal: neither touches the next
        assert all(b < a for (_, b), (a, _) in zip(got, got[1:]))


EXT_CURVED = extend(curved_pair()[0], Side.LOWER)
EXT_DIAG = extend(diagonal_pair()[0], Side.LOWER)
ZIGZAG = PolylinePath(
    [(0, (0, 0)), ("1/4", (1, "1/3")), ("1/2", (0, "2/3")), ("3/4", (1, 1))]
    + [(1, (0, 1))]
)
# name -> (curve, its domain)
CURVES = {
    "curved": (EXT_CURVED, interval(-1, 2)),
    "diagonal": (EXT_DIAG, interval(-1, 2)),
    "zigzag": (ZIGZAG, interval(0, 1)),
}


def _window(rng: random.Random, domain: Interval) -> Interval:
    cuts = (F(rng.randint(0, 384), 384) for _ in "ab")
    a, b = sorted(domain.lo + domain.width() * c for c in cuts)
    return Interval(a, b) if a < b else _window(rng, domain)


def _on_grid(s: Fraction, f, w: Interval, n: int) -> bool:
    return s in (w.lo, w.hi) or (s * 2 ** (f.modulus(n) + 1)).denominator == 1


def _probe(rng: random.Random, f, w: Interval, p: int) -> tuple:
    """f on w at precision p as a clearance probe has it (turn points),
    or as the shrink step's coarse pass does (every grid value)."""
    if rng.random() < 0.5:
        return _turn_points(f, w, p)
    return grid_values(f, w.lo, w.hi, f.modulus(p), p)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_the_hull_holds_the_boxed_points_and_ends_on_the_grid(name) -> None:
    f, domain = CURVES[name]
    rng = random.Random(name)
    for _ in range(30):
        w = _window(rng, domain)
        p, n = rng.randint(2, 9), rng.randint(2, 12)
        sden, snums, _den, pts = _probe(rng, f, w, p)
        levels = BoxLevels(pts)
        count = len(levels.levels[-1])
        step = F(1, 2 ** (f.modulus(n) + 1))
        for _ in range(5):
            leaves = rng.sample(range(count), rng.randint(1, count))
            spans = levels.spans(leaves)
            hull = _leaf_hull(f, w, n, sden, snums, spans)
            assert w.contains_interval(hull)
            params = [F(snums[q], sden) for a, b in spans for q in range(a, b + 1)]
            assert all(hull.lo <= s <= hull.hi for s in params)
            # widened outward by less than one grid step, to a grid
            # point or a window end
            assert hull.lo > min(params) - step and hull.hi < max(params) + step
            for s in (hull.lo, hull.hi):
                assert _on_grid(s, f, w, n), (w, p, n, leaves)
            if {0, count - 1} <= set(leaves):
                assert hull == w


@pytest.mark.parametrize("name", sorted(CURVES))
def test_leaves_holding_both_ends_give_the_window_itself(name) -> None:
    f, domain = CURVES[name]
    rng = random.Random(name + " ends")
    for _ in range(30):
        w = _window(rng, domain)
        p, n = rng.randint(2, 9), rng.randint(2, 40)
        sden, snums, _den, pts = _probe(rng, f, w, p)
        levels = BoxLevels(pts)
        last = len(levels.levels[-1]) - 1
        hull = _leaf_hull(f, w, n, sden, snums, levels.spans([last, 0]))
        for got, want in ((hull.lo, w.lo), (hull.hi, w.hi)):
            assert (got.numerator, got.denominator) == (
                want.numerator,
                want.denominator,
            )
