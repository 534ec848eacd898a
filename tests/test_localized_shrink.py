"""The shrink step's localized decisions and parity checks.

`refine._shrink_decisions` evaluates f's grid only where coarse passes
bounded by the moduli find the two curves near each other, decides its
values there on g's grids from coarse to fine, each finer one evaluated
only where a value is still open, and each run's parity check counts g
only on the run's stretch of j (all of j on the straight route).  These
tests hold it to the classification over all of j (`ref_shrink_low`),
on fixed cases and on random polylines and Beziers: equal runs of low
values, exceptions and shrink steps, equal crossing counts over each
run's stretch and over j, both grids' budgets checked before any
evaluation, and bounds on the values evaluated and read and the
polyline points counted in a refinement.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import curvemeet.parity as parity_module
import curvemeet.paths as paths_module
import curvemeet.refine as refine_module
from curvemeet import (
    PolylinePath,
    QuadBezierPath,
    Side,
    TablePath,
    curved_pair,
    extend,
    interval,
    pt,
    refine_sequence,
)
from curvemeet.exact_geom import Interval
from curvemeet.errors import CurveMeetError, EffortExhausted
from curvemeet.parity import _base_track, _sweep
from curvemeet.refine import _shrink_decisions, shrink_first

from ref_track import low_runs, ref_shrink_low
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
# f's samples under a modulus that is not monotone either: for n = 3
# mod 4, f.modulus(n + 1) exceeds f.modulus(n + 4), so f's coarse grid
# is its decision grid
F_WOBBLE = TablePath(
    [(s, (p.x, p.y)) for s, p in ANTI.entries],
    modulus_fn=lambda n: n + 5 if n % 4 == 0 else n + 1,
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
    "wobble_f_modulus": (ZIGZAG, F_WOBBLE, UNIT_I, UNIT_WINDOWS),
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


def _runs(f, g, i, j, n):
    """(sden, snums, runs) of `_shrink_decisions`."""
    return _shrink_decisions(f, g, i, j, n)[:3]


def _ref_runs(f, g, i, j, n):
    """(sden, snums, runs) over all of j: `ref_shrink_low`'s list turned
    into runs."""
    sden, snums, low = ref_shrink_low(f, g, i, j, n)
    return sden, snums, list(low_runs(low))


def _cases(name):
    g, f, f_windows, g_windows = G_ORACLES[name]
    for k, j in enumerate(g_windows):
        yield f, g, f_windows[k % len(f_windows)], j


@pytest.mark.parametrize("name", sorted(G_ORACLES))
def test_low_arrays_equal_those_over_all_of_j(name) -> None:
    for f, g, i, j in _cases(name):
        for n in DUCK_PRECISIONS if name == "duck" else PRECISIONS:
            want = _outcome(_ref_runs, f, g, i, j, n)
            assert _outcome(_runs, f, g, i, j, n) == want, (i, j, n)


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
    want = _outcome(_ref_runs, f, g, i, j, n)
    assert _outcome(_runs, f, g, i, j, n) == want


quarters = st.fractions(min_value=0, max_value=1, max_denominator=4)
beziers = st.tuples(*[st.tuples(quarters, quarters)] * 3).map(
    lambda ps: QuadBezierPath(*(pt(*p) for p in ps))
)
short_polylines = st.lists(
    st.tuples(unit_fractions, unit_fractions), min_size=2, max_size=4
).map(_polyline)


@seed(2027)
@given(
    bezier=beziers,
    other=st.one_of(beziers, short_polylines),
    bezier_is_g=st.booleans(),
    ducks=st.tuples(st.booleans(), st.booleans()),
    n=st.integers(2, 5),
    i=windows,
    j_lo=unit_fractions,
    j_width=st.fractions(min_value=0, max_value=1, max_denominator=8),
)
@settings(max_examples=150, deadline=None)
def test_random_curved_pairs_classify_as_over_all_of_j(
    bezier, other, bezier_is_g, ducks, n, i, j_lo, j_width
) -> None:
    # a Bezier on either side sends the step to the coarse route, which
    # decides its values on g's precision ladder; g's window shrinks with
    # n, so that the reference's fine polyline over all of j stays small
    f, g = (other, bezier) if bezier_is_g else (bezier, other)
    f, g = (DuckCurve(h) if duck else h for h, duck in zip((f, g), ducks))
    width = j_width * Fraction(1, 2 ** (n - 1))
    if width == 0:
        return
    j = Interval(min(j_lo, 1 - width), min(j_lo, 1 - width) + width)
    want = _outcome(_ref_runs, f, g, i, j, n)
    assert _outcome(_runs, f, g, i, j, n) == want


@pytest.mark.parametrize("n", PRECISIONS)
def test_a_parallel_stretch_just_inside_the_threshold_is_all_low(n) -> None:
    # f runs above g for t in [1/4, 3/4], at a height just under the
    # low threshold 2^-(n+1): every value there is low only if all
    # of g beneath it was evaluated, indexed and tested
    y = Fraction(1, 2) + Fraction(1, 2 ** (n + 1)) - Fraction(1, 2 ** (n + 12))
    g = PolylinePath([(0, (0, "1/2")), (1, (1, "1/2"))])
    f = PolylinePath([(0, (0, 1)), ("1/4", ("1/4", y)), ("3/4", ("3/4", y)), (1, (1, 1))])
    unit = interval(0, 1)
    sden, snums, runs = _runs(f, g, unit, unit, n)
    assert (sden, snums, runs) == _ref_runs(f, g, unit, unit, n)
    inside = [t for t, s in enumerate(snums) if sden <= 4 * s <= 3 * sden]
    assert all(any(a < t < b for a, b in runs) for t in inside)


@pytest.mark.parametrize("name", sorted(G_ORACLES))
def test_shrink_steps_equal_those_over_all_of_j(name, monkeypatch) -> None:
    cases = [(*case, n) for case in _cases(name) for n in (2, 4)]

    def shrinks():
        return [
            _outcome(shrink_first, *case, skip_precondition_checks=True)
            for case in cases
        ]

    localized = shrinks()
    monkeypatch.setattr(refine_module, "_shrink_decisions", _over_all_of_j)
    assert shrinks() == localized


def _over_all_of_j(f, g, i, j, n):
    """`_shrink_decisions` in the full form: the classification over all
    of j, and every run's parity counted over all of j."""
    return (*_ref_runs(f, g, i, j, n), lambda a, b: j)


def _crossings(f, g, i, j, n):
    return _sweep(_base_track(f, i, n), _base_track(g, j, n)).count


def _run_counts(f, g, i, j, n):
    """For each candidate run: its window, its stretch of j, and the
    crossings the parity check counts over each."""
    sden, snums, runs, stretch = _shrink_decisions(f, g, i, j, n)
    for a, b in runs:
        cand = Interval(Fraction(snums[a], sden), Fraction(snums[b], sden))
        near = stretch(a, b)
        # a part of j whose ends are points of g's grid at n+3, the
        # precision of the check, so that g's polyline on it is a part
        # of that on j
        e = g.modulus(n + 3) + 1
        assert j.contains_interval(near)
        for end in (near.lo, near.hi):
            assert end in (j.lo, j.hi) or end * 2**e % 1 == 0
        yield cand, near, _crossings(f, g, cand, near, n + 3), _crossings(
            f, g, cand, j, n + 3
        )


@pytest.mark.parametrize("name", sorted(G_ORACLES))
def test_each_run_counts_the_crossings_over_all_of_j(name) -> None:
    runs = 0
    for f, g, i, j, n in [(*case, n) for case in _cases(name) for n in (2, 4)]:
        try:
            counts = list(_run_counts(f, g, i, j, n))
        except CurveMeetError:
            continue  # an endpoint not clear, or a grid over the budget
        for cand, near, here, everywhere in counts:
            assert here == everywhere, (i, j, n, cand, near)
            runs += 1
    assert runs > 0


def test_a_run_near_two_stretches_of_g_counts_both() -> None:
    # g crosses f (y = 1/2) once on its way down, stays 2/5 below it,
    # and crosses it twice more in a spike: at n = 2 one run of f is near
    # both stretches of g, at n = 4 each stretch has its own run.  g
    # duck-typed takes the coarse route; as a polyline, the straight
    # route counts each run over all of j
    f = PolylinePath([(0, (0, "1/2")), (1, (1, "1/2"))])
    line = PolylinePath(
        [
            (0, ("2/5", 1)),
            ("1/5", ("9/20", "1/10")),
            ("1/2", ("11/20", "1/10")),
            ("3/5", ("29/50", "7/10")),
            ("7/10", ("61/100", "1/10")),
            (1, ("13/20", 0)),
        ]
    )
    unit = interval(0, 1)
    [(_, near, here, everywhere)] = _run_counts(f, line, unit, unit, 2)
    assert near == unit and here == everywhere == 3
    g = DuckCurve(line)
    [(_, near, here, everywhere)] = _run_counts(f, g, unit, unit, 2)
    assert here == everywhere == 3
    assert near.lo < Fraction(1, 5) and near.hi > Fraction(3, 5)
    assert near != unit
    counts = list(_run_counts(f, g, unit, unit, 4))
    assert [c[2:] for c in counts] == [(1, 1), (2, 2)]
    assert all(near.width() < Fraction(1, 2) for _, near, *_ in counts)


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


def _raises_before_any_evaluation(f, g) -> None:
    unit = interval(0, 1)
    want = _outcome(ref_shrink_low, f, g, unit, unit, 2)
    assert want[0] is EffortExhausted
    f.evals = g.evals = 0
    assert _outcome(_runs, f, g, unit, unit, 2) == want
    assert _outcome(
        shrink_first, f, g, unit, unit, 2, skip_precondition_checks=True
    ) == want
    assert f.evals == g.evals == 0


def test_an_over_budget_fine_grid_raises_before_any_evaluation() -> None:
    # g's fine grid at precision n + 9 has over 2^40 points, its coarse
    # one 2^9 + 1
    f = CountingCurve(ANTI, lambda n: n + 1)
    g = CountingCurve(ZIGZAG, lambda n: n + 2 if n < 8 else 40)
    _raises_before_any_evaluation(f, g)


def test_an_over_budget_decision_grid_raises_before_any_evaluation() -> None:
    # f's decision grid at precision n + 4 has over 2^40 points, its
    # coarse one 2^5 + 1
    f = CountingCurve(ANTI, lambda n: n + 1 if n < 6 else 40)
    g = CountingCurve(ZIGZAG, lambda n: n + 2)
    _raises_before_any_evaluation(f, g)


def test_refinement_evaluates_g_finely_only_near_f(monkeypatch) -> None:
    # over all of j the two rounds evaluate 76 936 fine g points on the
    # curved pair; only the precision ladder's fine rung reads them here,
    # on the blocks of g still undecided: 1 383 points in 5 calls
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


def test_refinement_evaluates_f_and_counts_g_only_near_each_other(monkeypatch) -> None:
    # over all of i the two rounds evaluate 17 844 values of f at the
    # decision precision n+9 on the curved pair, and the parity checks
    # count 11 636 polyline points over all of j; localized, about 3 600
    # and 4 500
    # every grid reader of `paths` ends in `_with_ends`, so the coarse
    # and the decision reads of f are both counted there
    decisions, with_ends, base_track = (
        refine_module._shrink_decisions,
        paths_module._with_ends,
        parity_module._base_track,
    )
    step = []
    evaluated = counted = 0

    def recorded(f, g, i, j, n):
        step[:] = [f, n]
        return decisions(f, g, i, j, n)

    def counted_values(h, lo, hi, e, ks, inner_den, inner, n):
        nonlocal evaluated
        out = with_ends(h, lo, hi, e, ks, inner_den, inner, n)
        if h is step[0] and n == step[1] + 9:
            evaluated += len(out.verts)
        return out

    def counted_track(h, i, n):
        nonlocal counted
        track = base_track(h, i, n)
        counted += len(track.snums)
        return track

    monkeypatch.setattr(refine_module, "_shrink_decisions", recorded)
    monkeypatch.setattr(paths_module, "_with_ends", counted_values)
    monkeypatch.setattr(parity_module, "_base_track", counted_track)
    refine_sequence(*curved_pair(), 2)
    assert 0 < evaluated <= 5_000
    assert 0 < counted <= 6_000


def test_refinement_reads_g_at_the_fine_precision_on_a_ladder(monkeypatch) -> None:
    # the values of g that the shrink steps of refine_sequence(curved, 2)
    # read at precision n+11: coarse g, 4 456 values, and each rung's
    # blocks near the values still open, 6 473.  The fine polyline near
    # f, read whole, took 20 228 more, 24 684 in all
    decisions, with_ends = refine_module._shrink_decisions, paths_module._with_ends
    step = []
    count = 0

    def recorded(f, g, i, j, n):
        step[:] = [g, n]
        return decisions(f, g, i, j, n)

    def counted(h, lo, hi, e, ks, inner_den, inner, n):
        nonlocal count
        out = with_ends(h, lo, hi, e, ks, inner_den, inner, n)
        if h is step[0] and n == step[1] + 11:
            count += len(out.verts)
        return out

    monkeypatch.setattr(refine_module, "_shrink_decisions", recorded)
    monkeypatch.setattr(paths_module, "_with_ends", counted)
    refine_sequence(*curved_pair(), 2)
    assert 0 < count <= 14_000
