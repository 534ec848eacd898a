"""The shrink step's straight route: runs of f decided whole.

Where f's decision grid and g's fine grid come as straight runs,
`refine._shrink_decisions` decides each run of f against the segments
of g's fine polyline in reach, in closed form, and expands no grid.
These tests hold the route to the classification over all of j
(`ref_shrink_low`, turned into runs by `low_runs`) on random
piecewise-linear pairs with pauses, collinear and overlapping segments
and window ends on the other curve, check that each run's parity is
counted over all of j, check where the route is taken, bound the values
of f it evaluates on the diagonals, and pin two pairs that stop on the
grid budget: coinciding arcs, and a modulus claimed large at some
precisions.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemeet.paths as paths_module
import curvemeet.refine as refine_module
from curvemeet import (
    PolylinePath,
    TablePath,
    diagonal_pair,
    refine_sequence,
    verify_certificate,
)
from curvemeet.cli import main
from curvemeet.errors import CurveMeetError, EffortExhausted
from curvemeet.exact_geom import Interval
from curvemeet.refine import _shrink_decisions, _straight_decisions

from ref_track import low_runs, ref_shrink_low
from test_localized_shrink import G_ORACLES, _cases, _run_counts

F = Fraction


def _outcome(fn, *args):
    """fn's result, or the type and message of the CurveMeetError it
    raised."""
    try:
        return fn(*args)
    except CurveMeetError as exc:
        return type(exc), str(exc)


def _ref_runs(f, g, i, j, n):
    return list(low_runs(ref_shrink_low(f, g, i, j, n)[2]))


def _step_runs(f, g, i, j, n):
    return _shrink_decisions(f, g, i, j, n)[2]


def _straight_runs(f, g, i, j, n):
    runs = _straight_decisions(f, g, i, j, n)
    assert runs is not None, "piecewise-linear grids come as straight runs"
    return runs


# vertices on the grid of eighths, so that collinear and overlapping
# segments and window ends on the other curve are common
eighths = st.fractions(min_value=0, max_value=1, max_denominator=8).filter(
    lambda x: 8 % x.denominator == 0
)
points = st.tuples(eighths, eighths)


def _path(draw, pts):
    """A PolylinePath or, with a modulus claimed a little coarser than
    its own, a TablePath through pts at evenly spaced parameters."""
    last = len(pts) - 1
    entries = [(F(k, last), p) for k, p in enumerate(pts)]
    base = PolylinePath(entries)
    if draw(st.booleans()):
        return base
    extra = draw(st.integers(0, 2))
    return TablePath(entries, modulus_fn=lambda n: base.modulus(n) + extra)


def _points(draw, pool, min_size):
    """Points from pool, each taken once or twice (a pause)."""
    repeats = st.integers(1, 2)
    drawn = draw(st.lists(st.tuples(pool, repeats), min_size=min_size, max_size=3))
    return [p for p, times in drawn for _ in range(times)]


def _window(draw, h, t, n):
    """A window of [0, 1] around t, at most 2^(7-n) / L wide for the
    speed L that h's modulus claims, so that f's decision grid has at
    most 2^12 points and g's fine grid fits the budget."""
    unit = F(1, 2) ** (n - 3 + h.modulus(0))
    lo = max(F(0), t - draw(st.integers(1, 8)) * unit)
    hi = min(F(1), t + draw(st.integers(1, 8)) * unit)
    return Interval(lo, hi)


@st.composite
def cases(draw):
    """f, g, i, j, n: g passes through the midpoint p of a segment of f,
    in half the cases on along that segment, and each window holds p's
    parameter or lies near it."""
    f_pts = _points(draw, points, 2)
    a = draw(st.integers(0, len(f_pts) - 2))
    (x0, y0), (x1, y1) = f_pts[a : a + 2]
    before, after = _points(draw, points, 0), _points(draw, points, 1)
    if draw(st.booleans()):
        after.insert(0, (x1, y1))  # g runs along f from p on
    g_pts = [*before, ((x0 + x1) / 2, (y0 + y1) / 2), *after]
    f, g, n = _path(draw, f_pts), _path(draw, g_pts), draw(st.integers(2, 9))
    i = _window(draw, f, F(2 * a + 1, 2 * len(f_pts) - 2), n)
    j = _window(draw, g, F(len(before), len(g_pts) - 1), n)
    return f, g, i, j, n


@given(case=cases())
@settings(max_examples=120, deadline=None)
def test_straight_route_equals_the_runs_over_all_of_j(case) -> None:
    f, g, i, j, n = case
    want = _outcome(_ref_runs, f, g, i, j, n)
    assert _outcome(_straight_runs, f, g, i, j, n) == want
    assert _outcome(_step_runs, f, g, i, j, n) == want


@given(case=cases())
@settings(max_examples=40, deadline=None)
def test_straight_stretches_count_the_crossings_over_all_of_j(case) -> None:
    f, g, i, j, n = case
    try:
        counts = list(_run_counts(f, g, i, j, min(n, 4)))
    except CurveMeetError:
        return  # an endpoint not clear, or a grid over the budget
    for cand, near, here, everywhere in counts:
        assert here == everywhere, (cand, near)


def _routes(monkeypatch, run) -> list[bool]:
    """Whether each shrink step that run() makes takes the straight
    route."""
    taken: list[bool] = []
    decisions, decide = refine_module._shrink_decisions, refine_module._straight_decisions

    def step(*args):
        taken.append(False)
        return decisions(*args)

    def recorded(*args):
        out = decide(*args)
        taken[-1] = out is not None
        return out

    monkeypatch.setattr(refine_module, "_shrink_decisions", step)
    monkeypatch.setattr(refine_module, "_straight_decisions", recorded)
    run()
    return taken


def test_the_straight_route_is_taken_on_the_diagonals(monkeypatch) -> None:
    taken = _routes(monkeypatch, lambda: refine_sequence(*diagonal_pair(), 4))
    assert taken == [True] * 8


@pytest.mark.parametrize("name", ["extended_bezier", "duck"])
def test_the_straight_route_is_not_taken_on_curved_or_duck_grids(
    name, monkeypatch
) -> None:
    cases = [(*case, n) for case in _cases(name) for n in (2, 4)]

    def run():
        for case in cases:
            _outcome(refine_module._shrink_decisions, *case)

    taken = _routes(monkeypatch, run)
    # only where g's window is its left tail, [-1, 0], are both curves
    # straight there
    tails = [case[3] == Interval(F(-1), F(0)) for case in cases]
    assert taken == tails
    assert (name == "duck") == (not any(taken))


def test_refinement_evaluates_f_on_the_diagonals_by_its_segments(monkeypatch) -> None:
    # the values of f that the shrink steps of refine_sequence(diagonals,
    # 2) evaluate: each list piece's values, each straight run's two ends
    # and each one-point evaluation (all through grid_runs), and every
    # value of a straight run expanded into a list; the coarse route
    # expanded 2 488 of them
    decisions, runs, expanded = (
        refine_module._shrink_decisions,
        paths_module.grid_runs,
        paths_module._expanded,
    )
    step, mine = [], []  # the pieces of f kept alive, so no id is reused
    count = 0

    def recorded(f, g, i, j, n):
        step[:] = [f]
        try:
            return decisions(f, g, i, j, n)
        finally:
            step.clear()

    def counted_runs(h, k0, k1, b, n):
        nonlocal count
        den, pieces = runs(h, k0, k1, b, n)
        if step and h is step[0]:
            mine.append(pieces)
            for p in pieces:
                size = len(p) if isinstance(p, list) else max(p[1] - p[0] + 1, 0)
                count += size if isinstance(p, list) else min(2, size)
        return den, pieces

    def counted_expanded(pieces):
        nonlocal count
        if any(pieces is p for p in mine):
            count += sum(max(p[1] - p[0] + 1, 0) for p in pieces if isinstance(p, tuple))
        return expanded(pieces)

    monkeypatch.setattr(refine_module, "_shrink_decisions", recorded)
    monkeypatch.setattr(paths_module, "grid_runs", counted_runs)
    monkeypatch.setattr(paths_module, "_expanded", counted_expanded)
    refine_sequence(*diagonal_pair(), 2)
    # each extended diagonal is three segments, a tail on each side
    segments = 3 + 3
    assert 0 < count <= 8 * segments


class Lowered:
    """A polyline whose values at precision p are its exact ones moved
    down by num * 2^-(p+2), within the 2^-p of the `PathOracle` contract
    for num <= 3, given as the polyline's straight runs."""

    def __init__(self, line: PolylinePath, num: int):
        self._line, self._num = line, num
        self.domain = line.domain

    def modulus(self, n):
        return self._line.modulus(n)

    def eval_runs(self, k0, k1, b, p):
        den, runs = self._line.eval_runs(k0, k1, b, p)
        s, drop = 1 << (p + 2), den * self._num
        return den * s, [
            (ka, kb, ax * s, bx * s, ay * s - drop, by * s)
            for ka, kb, ax, bx, ay, by in runs
        ]

    eval_approx = paths_module._one_point


@pytest.mark.parametrize("n, num, tip_k", [(2, 1, 8), (3, 2, 5), (2, 3, 47), (3, 1, 3)])
def test_a_stretch_reaches_a_tip_that_only_the_checked_polyline_crosses(
    n, num, tip_k
) -> None:
    # g crosses f (y = 1/2) down and up, then comes back to a tip
    # tip_k/16 * u above f, u = 2^-(n+10).  Lowered by num * u at the
    # check's base-point precision n+8 (tip_k < 16 * num), it crosses f
    # twice more there; lowered by num * u/8 at the fine precision n+11
    # (tip_k > 2 * num), it stays above f.  At n = 2 and 3 one run of f
    # is low from the first crossing to the tip, but the tip's fine
    # segments touch no part of it: the straight route's check counts
    # over the whole window, so it holds the tip's two crossings too
    tip = F(1, 2) + F(tip_k, 16) / 2 ** (n + 10)
    line = PolylinePath(
        [
            (0, ("1/5", 1)),
            ("1/4", ("1/4", "11/20")),
            ("3/8", ("3/10", "9/20")),
            ("1/2", ("2/5", "11/20")),
            ("5/8", ("3/5", tip)),
            (1, ("4/5", 1)),
        ]
    )
    f = PolylinePath([(0, (0, "1/2")), (1, (1, "1/2"))])
    g, unit = Lowered(line, num), Interval(F(0), F(1))
    assert _straight_decisions(f, g, unit, unit, n) is not None
    counts = list(_run_counts(f, g, unit, unit, n))
    assert any(everywhere == 4 for *_, everywhere in counts)
    for cand, near, here, everywhere in counts:
        assert here == everywhere, (cand, near)


# psi runs along phi, the diagonal, from (1/4, 1/4) to (1/2, 1/2); the
# intersection is that whole arc
COINCIDING = (
    PolylinePath([(0, (0, 0)), (1, (1, 1))]),
    PolylinePath(
        [(0, (0, 1)), ("1/3", ("1/4", "1/4")), ("2/3", ("1/2", "1/2")), (1, (1, 0))]
    ),
)


def test_coinciding_arcs_stop_on_the_grid_budget_at_once() -> None:
    # the runs along the shared arc never shrink, so the grid doubles per
    # round until round 3 passes the budget; expanding those grids took
    # about 0.6 s
    start = time.perf_counter()
    with pytest.raises(EffortExhausted, match="exceeds the budget"):
        refine_sequence(*COINCIDING, 4)
    assert time.perf_counter() - start < 1


def test_intersect_on_coinciding_arcs_exits_4(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    psi = [[str(t), str(p.x), str(p.y)] for t, p in COINCIDING[1].entries]
    spec.write_text(
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": psi},
            }
        ),
        encoding="utf-8",
    )
    assert main(["intersect", str(spec), "--iterations", "4"]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a track grid of ")


def test_a_two_row_table_with_a_steep_modulus_refines() -> None:
    # the anti-diagonal as a two-row table claiming modulus n + 6: the
    # budget check of g's fine grid runs before the straight route, which
    # never expands that grid, and at n + 5 it passes in every round
    phi = diagonal_pair()[0]
    psi = TablePath([(0, (0, 1)), (1, (1, 0))], modulus_offset=6)
    cert = refine_sequence(phi, psi, 16)
    assert cert.final.m == 16
    verify_certificate(cert, phi, psi)


def test_a_wobbling_modulus_stops_the_last_round_on_the_next_rounds_grid() -> None:
    # phi is the diagonal in eight segments, its modulus claimed 20 at
    # the precisions n = 1 mod 5; psi passes from 1/16 above it to 1/16
    # below.  In round 1 phi's window shrinks to [127/512, 385/512], and
    # psi's run is checked at precision 4 + 6 against phi's polyline
    # over that whole window, a grid of over 2^20 points; only the
    # stretch of the window near the run would fit.  Round 2 walks phi
    # over the same window on the same grid, so one round or two stop
    # on the budget alike
    line = [(F(k, 8), (F(k, 8), F(k, 8))) for k in range(9)]
    phi = TablePath(line, modulus_fn=lambda n: max(20, n + 1) if n % 5 == 1 else n + 1)
    psi = PolylinePath(
        [
            (0, (0, 1)),
            ("1/4", ("3/10", "29/80")),
            ("3/4", ("7/10", "51/80")),
            (1, (1, 0)),
        ]
    )
    window = r"on \[127/512, 385/512\] exceeds the budget"
    for rounds in (1, 2):
        with pytest.raises(EffortExhausted, match=window):
            refine_sequence(phi, psi, rounds)
