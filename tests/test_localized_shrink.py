"""The shrink step's localized distance side.

`refine._shrink_low` evaluates g finely, indexes it and tests f's grid
values against it only where a coarse pass at f's grid spacing finds g
near f.  These tests hold it to the classification over all of j
(`ref_shrink_low`): equal low arrays, exceptions and shrink steps, the
fine grid's budget checked before any evaluation, and a bound on the g
points evaluated at fine precision in a refinement.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemeet.refine as refine_module
from curvemeet import (
    PolylinePath,
    Side,
    TablePath,
    curved_pair,
    extend,
    interval,
    refine_sequence,
)
from curvemeet.exact_geom import Interval
from curvemeet.errors import CurveMeetError, EffortExhausted
from curvemeet.refine import _shrink_low, shrink_first

from ref_track import ref_shrink_low
from test_turn_points import (
    ANTI,
    EXT_CURVED,
    EXT_WINDOWS,
    EXT_ZIGZAG,
    PAUSE,
    UNIT_WINDOWS,
    ZIGZAG,
    DuckCurve,
)

# the zigzag's samples under a modulus that is not monotone: for n = 2
# mod 3, g.modulus(n + 4) exceeds g.modulus(n + 9), so the coarse grid
# is the fine one; for n = 0 mod 3 the fine grid is over the budget
WOBBLE = TablePath(
    [(s, (p.x, p.y)) for s, p in ZIGZAG.entries],
    modulus_fn=lambda n: n + 8 if n % 3 == 0 else n + 2,
)
EXT_ANTI = extend(ANTI, Side.UPPER)
# f's windows: the whole domain, ends off the grid, and one end on g
UNIT_I = [interval(0, 1), interval("1/5", "5/7"), interval("1/2", 1)]
EXT_I = [interval(-1, 2), interval("-1/3", "5/4"), interval("1/2", 2)]
G_ORACLES = {
    "polyline": (ZIGZAG, ANTI, UNIT_I, UNIT_WINDOWS),
    "table_pause": (PAUSE, ANTI, UNIT_I, UNIT_WINDOWS),
    "extended_polyline": (EXT_ZIGZAG, EXT_ANTI, EXT_I, EXT_WINDOWS),
    "extended_bezier": (EXT_CURVED, EXT_ANTI, EXT_I, EXT_WINDOWS),
    "duck": (DuckCurve(ZIGZAG), ANTI, UNIT_I, UNIT_WINDOWS),
    "wobble_modulus": (WOBBLE, ANTI, UNIT_I, UNIT_WINDOWS),
}
PRECISIONS = range(2, 10)
# the duck is evaluated point by point in Fraction arithmetic, and over
# all of j at n = 6 alone the reference would take 2^18 evaluations
DUCK_PRECISIONS = range(2, 6)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the CurveMeetError it
    raised."""
    try:
        return fn(*args, **kwargs)
    except CurveMeetError as exc:
        return type(exc), str(exc)


def _cases(name):
    g, f, f_windows, g_windows = G_ORACLES[name]
    for k, j in enumerate(g_windows):
        yield f, g, f_windows[k % len(f_windows)], j


@pytest.mark.parametrize("name", sorted(G_ORACLES))
def test_low_arrays_equal_those_over_all_of_j(name) -> None:
    for f, g, i, j in _cases(name):
        for n in DUCK_PRECISIONS if name == "duck" else PRECISIONS:
            want = _outcome(ref_shrink_low, f, g, i, j, n)
            assert _outcome(_shrink_low, f, g, i, j, n) == want, (i, j, n)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=16)
polylines = st.lists(st.tuples(unit_fractions, unit_fractions), min_size=2, max_size=6)
windows = st.lists(unit_fractions, min_size=2, max_size=2, unique=True).map(
    lambda ends: Interval(*sorted(ends))
)


def _polyline(points) -> PolylinePath:
    last = len(points) - 1
    return PolylinePath([(Fraction(k, last), p) for k, p in enumerate(points)])


@given(f_pts=polylines, g_pts=polylines, i=windows, j=windows, n=st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_random_polylines_classify_as_over_all_of_j(f_pts, g_pts, i, j, n) -> None:
    f, g = _polyline(f_pts), _polyline(g_pts)
    want = _outcome(ref_shrink_low, f, g, i, j, n)
    assert _outcome(_shrink_low, f, g, i, j, n) == want


@pytest.mark.parametrize("n", PRECISIONS)
def test_a_parallel_stretch_just_inside_the_threshold_is_all_low(n) -> None:
    # f runs above g for t in [1/4, 3/4], at a height just under the
    # low threshold 2^-(n+1): every value there is low only if all
    # of g beneath it was evaluated, indexed and tested
    y = Fraction(1, 2) + Fraction(1, 2 ** (n + 1)) - Fraction(1, 2 ** (n + 12))
    g = PolylinePath([(0, (0, "1/2")), (1, (1, "1/2"))])
    f = PolylinePath([(0, (0, 1)), ("1/4", ("1/4", y)), ("3/4", ("3/4", y)), (1, (1, 1))])
    unit = interval(0, 1)
    sden, snums, low = _shrink_low(f, g, unit, unit, n)
    assert (sden, snums, low) == ref_shrink_low(f, g, unit, unit, n)
    assert all(low[t] for t, s in enumerate(snums) if sden <= 4 * s <= 3 * sden)


@pytest.mark.parametrize("name", sorted(G_ORACLES))
def test_shrink_steps_equal_those_over_all_of_j(name, monkeypatch) -> None:
    cases = [(*case, n) for case in _cases(name) for n in (2, 4)]

    def shrinks():
        return [
            _outcome(shrink_first, *case, skip_precondition_checks=True)
            for case in cases
        ]

    localized = shrinks()
    monkeypatch.setattr(refine_module, "_shrink_low", ref_shrink_low)
    assert shrinks() == localized


class CountingCurve(DuckCurve):
    """A duck-typed curve that counts its evaluations."""

    def __init__(self, twin, modulus_fn):
        super().__init__(twin)
        self._modulus_fn = modulus_fn
        self.evals = 0

    def eval_approx(self, t, n):
        self.evals += 1
        return super().eval_approx(t, n)

    def modulus(self, n):
        return self._modulus_fn(n)


def test_an_over_budget_fine_grid_raises_before_any_evaluation() -> None:
    # g's fine grid at precision n + 9 has over 2^40 points, its coarse
    # one 2^9 + 1
    f = CountingCurve(ANTI, lambda n: n + 1)
    g = CountingCurve(ZIGZAG, lambda n: n + 2 if n < 8 else 40)
    unit = interval(0, 1)
    want = _outcome(ref_shrink_low, f, g, unit, unit, 2)
    assert want[0] is EffortExhausted
    f.evals = g.evals = 0
    assert _outcome(_shrink_low, f, g, unit, unit, 2) == want
    assert _outcome(
        shrink_first, f, g, unit, unit, 2, skip_precondition_checks=True
    ) == want
    assert f.evals == g.evals == 0


def test_refinement_evaluates_g_finely_only_near_f(monkeypatch) -> None:
    # over all of j the two rounds evaluate 76 936 fine g points on the
    # curved pair; near f's grid, about 20 000
    fine = refine_module._turn_points
    count = 0

    def counted(g, j, n):
        nonlocal count
        points = fine(g, j, n)
        count += len(points[3])
        return points

    monkeypatch.setattr(refine_module, "_turn_points", counted)
    refine_sequence(*curved_pair(), 2)
    assert 0 < count <= 25_000
