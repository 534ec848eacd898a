"""Straight runs cut to their ends.

`paths._turn_points` gives the base points of a track with only the two
ends of each straight run kept.  These tests hold it to the full form
(`ref_full_points`): the kept points are an in-order subsequence of it
with the same ends, every full point lies on the kept polyline at its
own parameter, distances to both polylines are equal, and so are the
clearance enclosures, working precisions, parities and shrink steps
computed from either.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import curvemeet.parity as parity_module
import curvemeet.refine as refine_module
from curvemeet import (
    PolylinePath,
    Side,
    TablePath,
    alpha_enclosure,
    curved_pair,
    diagonal_pair,
    extend,
    function_parity,
    interval,
    working_precision,
)
from curvemeet._fastgeom import BoxLevels, pair_over_lcm
from curvemeet.exact_geom import Interval, Point
from curvemeet.paths import _turn_points
from curvemeet.refine import shrink_first

from ref_track import ref_full_points

F = Fraction


class DuckCurve:
    """A curve with nothing but eval_approx, modulus and domain."""

    def __init__(self, twin):
        self._twin = twin
        self.domain = twin.domain

    def eval_approx(self, t, n):
        return self._twin.eval_approx(t, n)

    def modulus(self, n):
        return self._twin.modulus(n)


ZIGZAG = PolylinePath(
    [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
)
# the curve pauses at (1/2, 1/4) for t in [1/3, 1/2]
PAUSE = TablePath(
    [(0, (0, 0)), ("1/3", ("1/2", "1/4")), ("1/2", ("1/2", "1/4")), (1, (1, 1))],
    modulus_offset=2,
)
ANTI = diagonal_pair()[1]
EXT_ZIGZAG = extend(ZIGZAG, Side.LOWER)
EXT_CURVED = extend(curved_pair()[0], Side.LOWER)

UNIT_WINDOWS = [
    interval(0, 1),
    interval("1/3", "2/3"),  # on table vertices
    interval("1/3", "1/2"),  # the pause
    interval("1/5", "5/7"),  # off the grid
    interval("2/7", 1),
]
EXT_WINDOWS = [
    interval(-1, 2),
    interval(0, 1),  # on the tail junctions
    interval(-1, 0),  # one tail
    interval("-1/3", "5/4"),  # off the grid, across both junctions
    interval("1/7", "13/9"),
]
ORACLES = {
    "polyline": (ZIGZAG, UNIT_WINDOWS),
    "table_pause": (PAUSE, UNIT_WINDOWS),
    "extended_polyline": (EXT_ZIGZAG, EXT_WINDOWS),
    "extended_bezier": (EXT_CURVED, EXT_WINDOWS),
    "duck": (DuckCurve(ZIGZAG), UNIT_WINDOWS),
}
PRECISIONS = range(2, 10)


def _both(f, iv: Interval, n: int):
    """The kept and the full form over common denominators:
    (snums, values, snums, values)."""
    ksden, ks, kden, kv = _turn_points(f, iv, n)
    fsden, fs, fden, fv = ref_full_points(f, iv, n)
    sden = math.lcm(ksden, fsden)
    ks = [s * (sden // ksden) for s in ks]
    fs = [s * (sden // fsden) for s in fs]
    kv, fv, _den = pair_over_lcm(kden, kv, fden, fv)
    return ks, kv, fs, fv


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_kept_points_are_an_in_order_subsequence_with_the_same_ends(name) -> None:
    f, windows = ORACLES[name]
    for iv in windows:
        for n in PRECISIONS:
            ks, kv, fs, fv = _both(f, iv, n)
            full = dict(zip(fs, fv))
            assert len(full) == len(fs)  # parameters increase strictly
            assert ks == sorted(set(ks)), (iv, n)
            assert [full[s] for s in ks] == list(kv), (iv, n)
            assert (ks[0], ks[-1]) == (fs[0], fs[-1])
            if name == "duck":
                assert ks == fs  # no runs: every base point is kept


@pytest.mark.parametrize("f", (EXT_ZIGZAG, EXT_CURVED), ids=("zigzag", "curved"))
def test_windows_ending_two_grid_steps_from_a_tail_keep_no_point_beyond(f) -> None:
    # with b = 2^(modulus(n) + 1), a window from 3/(2b) leaves its left
    # tail the run of indices 2 to 0, and one up to 1 - 1/b its right
    # tail the run b to b - 2; each once gave a point beyond the window
    for n in PRECISIONS:
        b = 2 ** (f.modulus(n) + 1)
        for iv in (
            Interval(Fraction(3, 2 * b), Fraction(1, 2)),
            Interval(Fraction(1, 2), 1 - Fraction(1, b)),
            Interval(Fraction(3, 2 * b), 1 - Fraction(1, b)),
        ):
            ks, kv, fs, fv = _both(f, iv, n)
            full = dict(zip(fs, fv))
            assert ks == sorted(set(ks)), (iv, n)
            assert [full[s] for s in ks] == list(kv), (iv, n)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_full_point_lies_on_the_kept_polyline_at_its_parameter(name) -> None:
    # between kept neighbours a and b the full point at parameter s is
    # a + (s - s_a) / (s_b - s_a) * (b - a): the same polyline, parameter
    # by parameter
    f, windows = ORACLES[name]
    for iv in windows:
        for n in PRECISIONS:
            ks, kv, fs, fv = _both(f, iv, n)
            seg = 0
            for s, (x, y) in zip(fs, fv):
                while ks[seg + 1] < s:
                    seg += 1
                (sa, sb), ((ax, ay), (bx, by)) = ks[seg : seg + 2], kv[seg : seg + 2]
                assert (x - ax) * (sb - sa) == (bx - ax) * (s - sa), (iv, n, s)
                assert (y - ay) * (sb - sa) == (by - ay) * (s - sa), (iv, n, s)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_distances_to_the_kept_polyline_are_exactly_the_full_ones(name) -> None:
    f, windows = ORACLES[name]
    rng = random.Random(1300)
    for iv in windows:
        for n in (2, 5, 9):
            _ks, kv, _fs, fv = _both(f, iv, n)
            kept, full = BoxLevels(kv), BoxLevels(fv)
            xs = [x for x, _ in fv]
            ys = [y for _, y in fv]
            wx, wy = max(xs) - min(xs) + 1, max(ys) - min(ys) + 1
            for _ in range(40):
                px = rng.randint(min(xs) - wx, max(xs) + wx)
                py = rng.randint(min(ys) - wy, max(ys) + wy)
                assert kept.sq_dist_to_point(px, py) == full.sq_dist_to_point(px, py)
            for px, py in fv[:: max(1, len(fv) // 25)]:
                assert kept.sq_dist_to_point(px, py) == 0


def test_kept_ends_are_the_oracle_values() -> None:
    for f, windows in ORACLES.values():
        for iv in windows:
            sden, snums, vden, values = _turn_points(f, iv, 6)
            for s, (x, y) in zip(snums, values):
                assert Point(F(x, vden), F(y, vden)) == f.eval_approx(F(s, sden), 8)


def test_straight_oracles_keep_only_their_turns() -> None:
    # the extended diagonal keeps the ends of its three runs and of the
    # window; the Bezier keeps its inner grid point by point
    diag = extend(diagonal_pair()[0], Side.LOWER)
    assert len(_turn_points(diag, interval(-1, 2), 9)[1]) == 8
    sden, snums, _vden, _values = _turn_points(EXT_CURVED, interval(-1, 2), 9)
    inner = [s for s in snums if 0 < s < sden]
    assert len(inner) == sden - 1 and len(snums) == len(inner) + 6


# ----------------------------------------------- consumers of the kept form

EXT_DIAG = tuple(extend(c, side) for c, side in zip(diagonal_pair(), Side))
EXT_CURVES = tuple(extend(c, side) for c, side in zip(curved_pair(), Side))
FULL = interval(-1, 2)
PAIRS = [
    (ZIGZAG, ANTI, interval("1/4", "3/4"), interval("1/4", "3/4")),
    (ZIGZAG, ANTI, interval("5/8", 1), interval(0, 1)),
    (ZIGZAG, ANTI, interval(0, 1), interval(0, "3/8")),
    (PAUSE, ANTI, interval(0, 1), interval(0, 1)),
    (PAUSE, ANTI, interval("1/3", "1/2"), interval(0, 1)),
    (*EXT_DIAG, FULL, FULL),
    (*EXT_DIAG, interval(-1, "-1/2"), interval(0, 1)),
    (*EXT_CURVES, FULL, FULL),
    (*EXT_CURVES, interval("1/3", "5/4"), interval(0, 1)),
    (DuckCurve(ZIGZAG), ANTI, interval(0, 1), interval(0, 1)),
]


def _full_form(monkeypatch) -> None:
    for module in (parity_module, refine_module):
        monkeypatch.setattr(module, "_turn_points", ref_full_points)


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_queries_equal_those_of_the_full_form(k, monkeypatch) -> None:
    f, g, i, j = PAIRS[k]

    def queries():
        encs = [alpha_enclosure(f, g, i, j, n) for n in PRECISIONS]
        return encs, working_precision(f, g, i, j), [
            function_parity(f, g, i, j, n=n) for n in (4, 7, 10)
        ]

    kept = queries()
    _full_form(monkeypatch)
    assert queries() == kept


@pytest.mark.parametrize("pair", [EXT_DIAG, EXT_CURVES])
def test_shrink_steps_equal_those_of_the_full_form(pair, monkeypatch) -> None:
    f, g = pair
    steps = [(f, g, FULL, FULL, 2), (g, f, FULL, interval("1/4", "5/4"), 3)]

    def shrinks():
        return [
            shrink_first(*step, skip_precondition_checks=True) for step in steps
        ]

    kept = shrinks()
    _full_form(monkeypatch)
    assert shrinks() == kept
