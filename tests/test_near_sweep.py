"""The crossing sweep near the last clearance probe.

A window-parity query without n counts on the last probe's own
polylines where n is the probe's precision, and otherwise sweeps each
curve only on the hull of the probe's leaves that `near_leaves` pairs
with the other curve's (`parity._near_sweep`).  These tests hold both
routes to the
sweep of both whole windows at the same precision, whole
`CrossingReport` and all, for any probe precision p: on random windows
of the builtin pairs and the three-crossing pair, on a duck-typed
oracle, a table with a non-monotone modulus, a polyline that pauses,
and probes several bits below n and above it.  They also cap the points
swept, check that a query at its probe's precision evaluates and builds
nothing after the probe, that a far window evaluates nothing at n, that
the grid budget at n fails the same queries as before, that the shrink
step's precondition check probes each precision once, and that its run
checks count at n+3.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import curvemeet.parity as parity_module
import curvemeet.paths as paths_module
import curvemeet.refine as refine_module
from curvemeet import (
    PolylinePath,
    Side,
    TablePath,
    curved_pair,
    diagonal_pair,
    extend,
    function_parity,
    interval,
    refine_sequence,
    shrink_pair,
    working_precision,
)
from curvemeet._fastgeom import BoxLevels
from curvemeet.errors import EffortExhausted
from curvemeet.exact_geom import Interval, Point
from curvemeet.parity import _base_track, _near_sweep, _sweep, alpha_enclosure
from curvemeet.paths import IntPolyline

from test_localized_shrink import WOBBLE
from test_turn_points import ANTI, PAUSE, ZIGZAG, DuckCurve
from test_working_precision import WINDOWS as WP_WINDOWS
from test_working_precision import _case as wp_case

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

F = Fraction

EXT_CURVED = tuple(extend(c, side) for c, side in zip(curved_pair(), Side))
EXT_DIAG = tuple(extend(c, side) for c, side in zip(diagonal_pair(), Side))
EXT = (F(-1), F(2))
UNIT = (F(0), F(1))
# name -> (f, g, domain); the three-crossing pair is used without tails
PAIRS = {
    "curved": (*EXT_CURVED, EXT),
    "diagonals": (*EXT_DIAG, EXT),
    "three_crossing": (ZIGZAG, ANTI, UNIT),
}


def whole(f, g, i: Interval, j: Interval, n: int):
    """The sweep of both whole windows at precision n."""
    return _sweep(_base_track(f, i, n), _base_track(g, j, n))


def _on_grid(s: Fraction, f, w: Interval, n: int) -> bool:
    """Whether s is an end of w or a point of f's grid at n on it."""
    return s in (w.lo, w.hi) or (s * 2 ** (f.modulus(n) + 1)).denominator == 1


def near(f, g, i: Interval, j: Interval, n: int, p: int):
    """The sweep near the probe at precision p, after checking that each
    curve is swept from and to points of its grid at n."""
    swept = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parity_module, "_sweep", lambda *pq: swept.append(pq) or _sweep(*pq))
        report = _near_sweep(f, g, i, j, n, alpha_enclosure(f, g, i, j, p))
    for pq in swept:
        for track, c, w in zip(pq, (f, g), (i, j)):
            for s in (track.snums[0], track.snums[-1]):
                assert _on_grid(F(s, track.sden), c, w, n), (i, j, n, p)
    return report


def _window(rng: random.Random, lo: Fraction, hi: Fraction) -> Interval:
    a, b = sorted(lo + (hi - lo) * F(rng.randint(0, 96), 96) for _ in range(2))
    return Interval(a, b) if a < b else _window(rng, lo, hi)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_near_report_is_the_whole_sweeps_on_random_windows(name) -> None:
    f, g, (lo, hi) = PAIRS[name]
    rng = random.Random(1800 + len(name))
    crossed = 0
    for _ in range(24):
        i, j = _window(rng, lo, hi), _window(rng, lo, hi)
        n = rng.randint(2, 7)
        want = whole(f, g, i, j, n)
        crossed += want.count > 0
        for p in {rng.randint(2, n + 3), n}:
            assert near(f, g, i, j, n, p) == want, (i, j, n, p)
    assert crossed >= 5


def _offset(curve, dy: Fraction, at: int):
    """curve, with its values at precision `at` moved up by dy, under
    2^-at: an oracle whose error is one-sided at that precision only."""

    class Offset(DuckCurve):
        def eval_approx(self, t, m):
            z = curve.eval_approx(t, m)
            return Point(z.x, z.y + dy) if m == at else z

    assert abs(dy) < F(1, 2**at)
    return Offset(curve)


# flat but for a spike of height 125/1024 at x = SPIKE_TOP, strictly
# between two of its grid points at precision 3 (modulus 6, spacing
# 1/128), which its modulus at 3 allows
SPIKE_TOP = F(1, 2) + F(4, 1024)
SPIKE = TablePath(
    [
        (0, (0, 0)),
        (SPIKE_TOP - F(3, 1024), (SPIKE_TOP - F(3, 1024), 0)),
        (SPIKE_TOP, (SPIKE_TOP, F(125, 1024))),
        (SPIKE_TOP + F(3, 1024), (SPIKE_TOP + F(3, 1024), 0)),
        (1, (1, 0)),
    ],
    modulus_fn=lambda k: k + 3 if k == 3 else k + 6,
)


def test_every_pair_the_reach_allows_can_carry_a_crossing() -> None:
    # f is the spike; g is flat at 120/1024.  The probe values, at
    # precision 5, sit 31/1024 below f and above g, 182/1024 apart:
    # within the reach 330/1024 at n = 8, beyond half of it, while the
    # polylines at n cross twice on the spike
    flat = PolylinePath([(0, (0, F(120, 1024))), (1, (1, F(120, 1024)))])
    f, g = _offset(SPIKE, F(-31, 1024), 5), _offset(flat, F(31, 1024), 5)
    i, j = interval("3/8", "5/8"), interval(0, 1)
    want = whole(f, g, i, j, 8)
    assert want.count == 2
    assert near(f, g, i, j, 8, 3) == want


@pytest.mark.parametrize("window", WP_WINDOWS, ids=[" ".join(w) for w in WP_WINDOWS])
def test_parity_queries_sweep_the_whole_report(window) -> None:
    f, g, _c1, _c2, i, j = wp_case(*window)
    enc, n = working_precision(f, g, i, j)
    want = whole(f, g, i, j, n)
    assert _near_sweep(f, g, i, j, n, enc) == want
    assert function_parity(f, g, i, j) == want.parity


# name -> (f, g, precisions n), each over all pairs of ODD_WINDOWS
ODD_ORACLES = {
    "duck": (DuckCurve(ZIGZAG), ANTI, range(2, 6)),
    "wobble_modulus": (WOBBLE, ANTI, range(2, 9)),
    "pause": (PAUSE, ANTI, range(2, 9)),
    "pause_against_zigzag": (ZIGZAG, PAUSE, range(2, 9)),
}
ODD_WINDOWS = [
    interval(0, 1),
    interval("1/3", "2/3"),
    interval("1/3", "1/2"),
    interval("1/5", "5/7"),
    interval("2/7", 1),
]


@pytest.mark.parametrize("name", sorted(ODD_ORACLES))
def test_near_report_on_other_oracles(name) -> None:
    f, g, precisions = ODD_ORACLES[name]
    for i in ODD_WINDOWS:
        for j in ODD_WINDOWS:
            for n in precisions:
                want = whole(f, g, i, j, n)
                for p in sorted({2, n - 1, n, n + 2} - {1}):
                    assert near(f, g, i, j, n, p) == want, (i, j, n, p)


# descends with slope -1/2 through the point (1/2, 1/4) where PAUSE
# pauses, crossing it there
THROUGH_PAUSE = PolylinePath([(0, (0, "1/2")), (1, (1, 0))])
PAUSE_WINDOWS = [
    (interval("1/4", "3/4"), interval("1/4", "3/4")),
    (interval("1/5", "5/9"), interval("1/3", "2/3")),
    (interval(0, 1), interval("1/5", "5/7")),
]


@pytest.mark.parametrize("pause_is_f", [True, False], ids=["as_f", "as_g"])
def test_pause_queries_equal_the_whole_sweep_with_its_repeats(pause_is_f) -> None:
    # PAUSE's turn points repeat its pause point, where the other curve
    # crosses it; the whole sweep keeps the repeat, and so counts what
    # the polylines without it count
    for pause_w, other_w in PAUSE_WINDOWS:
        f, g, i, j = PAUSE, THROUGH_PAUSE, pause_w, other_w
        if not pause_is_f:
            f, g, i, j = g, f, j, i
        enc, n = working_precision(f, g, i, j)
        want = whole(f, g, i, j, n)
        verts = _base_track(PAUSE, pause_w, n).verts
        assert any(a == b for a, b in zip(verts, verts[1:]))
        plain = _sweep(_without_repeats(f, i, n), _without_repeats(g, j, n))
        assert [z for *_, z in want.crossings] == [z for *_, z in plain.crossings]
        assert want.parity == 1
        assert _near_sweep(f, g, i, j, n, enc) == want
        assert function_parity(f, g, i, j) == want.parity


def _without_repeats(f, w: Interval, n: int):
    """`_base_track(f, w, n)` with each repeat of a vertex dropped."""
    sden, snums, vden, verts = _base_track(f, w, n)
    keep = [k for k, z in enumerate(verts) if k == 0 or z != verts[k - 1]]
    return IntPolyline(sden, [snums[k] for k in keep], vden, [verts[k] for k in keep])


def test_probes_several_bits_from_n() -> None:
    # a coarse probe widens the reach by 2.5 * 2^-p, and the hulls hold
    # most of each window; a fine one ends them between grid points at
    # n, from which they are widened
    f, g = EXT_CURVED
    for i, j in [
        (interval(-1, 2), interval(-1, 2)),
        (interval(0, 1), interval("-1/4", "3/4")),
        (interval("1/7", "13/9"), interval("-1/3", "5/4")),
    ]:
        for n in (4, 7):
            want = whole(f, g, i, j, n)
            assert want.count == 1
            for p in (2, 3, n - 3, n + 3, n + 5):
                assert near(f, g, i, j, n, p) == want, (i, j, n, p)


def _recording_sweeps(monkeypatch) -> list[int]:
    """The points of both polylines of every sweep."""
    swept = []

    def recording_sweep(p, q, *levels):
        swept.append(len(p.snums) + len(q.snums))
        return _sweep(p, q, *levels)

    monkeypatch.setattr(parity_module, "_sweep", recording_sweep)
    return swept


def _perfbench_windows(workload: str, seed: int):
    pairs = workloads.make_pairs()
    return [
        (interval(*i), interval(*j))
        for _name, i, j in workloads.make_windows(workload, seed, pairs)
    ]


def test_swept_points_of_the_curved_windows_are_capped(monkeypatch) -> None:
    # each of these queries counts on its last probe (n = p); from a
    # probe two bits finer, the hulls one bit above that probe are swept,
    # and they hold at most a third of the whole windows' points
    f, g = EXT_CURVED
    windows = _perfbench_windows("curved", 901)
    assert len(windows) == 9
    full, queries = 0, []
    for i, j in windows:
        enc, n = working_precision(f, g, i, j)
        assert n == enc.precision_used
        queries.append((i, j, n + 3, alpha_enclosure(f, g, i, j, n + 2)))
        full += len(_base_track(f, i, n + 3).snums)
        full += len(_base_track(g, j, n + 3).snums)
    swept = _recording_sweeps(monkeypatch)
    for query in queries:
        assert _near_sweep(f, g, *query) == whole(f, g, *query[:3])
    assert 3 * sum(swept) <= full


def _logging(events: list, name: str, fn):
    def logged(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)

    return logged


def test_a_query_at_its_probe_precision_evaluates_and_builds_nothing_more(
    monkeypatch,
) -> None:
    # the last probe certifies n at its own precision, so the sweep
    # descends that probe's two hierarchies: no grid is sized or
    # evaluated and no hierarchy built once it has measured
    f, g = EXT_CURVED
    i, j = interval(0, 1), interval("-1/8", "7/8")
    events: list[str] = []
    enclose = parity_module.alpha_enclosure

    def recording_enclosure(*args):
        events.append("probe")
        enc = enclose(*args)
        events.append("probed")
        return enc

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    for name in ("_grid_bounds", "grid_runs"):
        fn = getattr(paths_module, name)
        monkeypatch.setattr(paths_module, name, _logging(events, "grid", fn))
    monkeypatch.setattr(
        BoxLevels, "__init__", _logging(events, "levels", BoxLevels.__init__)
    )
    assert function_parity(f, g, i, j) == 1
    last = len(events) - events[::-1].index("probe") - 1
    assert events[-1] == "probed" and events[last:].count("levels") == 2
    assert "grid" in events[last:]


def test_shrink_parity_checks_size_their_grids_at_n_plus_3(monkeypatch) -> None:
    # in one curved round, each parity check of a run counts at n + 3,
    # n being the shrink step's precision, sizes its grids there only,
    # and gets the opposing curve's stretch widened to its grid there
    steps, checks, sized = [], [], []
    decide, parity = refine_module._shrink_decisions, refine_module.function_parity

    def recording_decisions(f, g, i, j, n):
        steps.append((n, j))
        return decide(f, g, i, j, n)

    def recording_parity(f, g, i, j, effort=64, n=None):
        sized.clear()
        out = parity(f, g, i, j, effort, n)
        checks.append((*steps[-1], g, j, n, {f.modulus(n), g.modulus(n)}, set(sized)))
        return out

    def recording_bounds(lo, hi, md, bounds=paths_module._grid_bounds):
        sized.append(md)
        return bounds(lo, hi, md)

    monkeypatch.setattr(refine_module, "_shrink_decisions", recording_decisions)
    monkeypatch.setattr(refine_module, "function_parity", recording_parity)
    monkeypatch.setattr(paths_module, "_grid_bounds", recording_bounds)
    refine_sequence(*curved_pair(), 1)
    assert len(steps) == 2 and len(checks) >= 2
    for step_n, step_j, g, stretch, n, moduli, mds in checks:
        assert n == step_n + 3 and mds and mds <= moduli
        assert step_j.contains_interval(stretch)
        assert all(_on_grid(s, g, step_j, n) for s in (stretch.lo, stretch.hi))


def test_a_far_window_evaluates_nothing_at_n(monkeypatch) -> None:
    f, g = EXT_CURVED
    i, j = interval("3/8", "7/8"), interval("11/8", "15/8")
    assert whole(f, g, i, j, working_precision(f, g, i, j)[1]).count == 0

    def no_track(*args):
        raise AssertionError("a far window evaluated a grid at n")

    monkeypatch.setattr(parity_module, "_base_track", no_track)
    assert function_parity(f, g, i, j) == 0


def test_the_whole_grid_budget_at_n_is_checked_first() -> None:
    # probes up to 6 fit the budget and certify n = 7, whose grid is
    # 2^48 points; the query must fail as the whole sweep does
    f = TablePath(
        [(0, (0, 0)), (1, (1, 0))],
        modulus_fn=lambda n: n + 1 if n < 7 else n + 40,
    )
    g = PolylinePath([(0, (0, "1/20")), (1, (1, "1/20"))])
    unit = interval(0, 1)
    enc, n = working_precision(f, g, unit, unit)
    assert (enc.precision_used, n) == (6, 7)
    with pytest.raises(EffortExhausted, match="track grid"):
        function_parity(f, g, unit, unit)
    # a curve 3/25 away pairs no leaves of the probe at 6 at n = 7, and
    # the sweep must still fail
    far = PolylinePath([(0, (0, "3/25")), (1, (1, "3/25"))])
    with pytest.raises(EffortExhausted, match="track grid"):
        _near_sweep(f, far, unit, unit, 7, alpha_enclosure(f, far, unit, unit, 6))
    # here the probe at 7 pairs f's leaves on [0, 1/16] only, a hull
    # whose grid at n = 8 fits the budget while the whole window's,
    # 2^21 points, does not
    f = DuckCurve(
        TablePath(
            [(0, (0, "1/2")), (1, (1, "1/2"))],
            modulus_fn=lambda n: n + 1 if n < 8 else 20,
        )
    )
    g = PolylinePath([(0, ("1/40", 0)), (1, ("1/40", 1))])
    enc, n = working_precision(f, g, unit, unit)
    assert (enc.precision_used, n) == (7, 8)
    with pytest.raises(EffortExhausted, match="track grid"):
        function_parity(f, g, unit, unit)


def test_explicit_n_sweeps_the_whole_windows(monkeypatch) -> None:
    # the floor 1/16 at precision 5 certifies n = 6, one bit above the
    # probe, so the query without n sweeps the hulls at n
    f, g = EXT_CURVED
    i, j = interval(-1, "1/2"), interval("-7/8", 1)
    swept = _recording_sweeps(monkeypatch)
    enc, n = working_precision(f, g, i, j)
    assert (enc.precision_used, n) == (5, 6)
    whole_points = len(_base_track(f, i, n).snums)
    whole_points += len(_base_track(g, j, n).snums)
    assert function_parity(f, g, i, j, n=n) == 1
    function_parity(f, g, i, j)
    assert swept[0] == whole_points and swept[1] < whole_points


def test_the_enclosure_keeps_its_probe_out_of_eq_and_repr() -> None:
    f, g = EXT_CURVED
    i, j = interval(0, 1), interval(0, 1)
    a, b = alpha_enclosure(f, g, i, j, 5), alpha_enclosure(f, g, i, j, 5)
    assert a._probe is not b._probe and a == b and hash(a) == hash(b)
    assert repr(a) == repr(parity_module.AlphaEnclosure(a.lo, a.hi, 5))
    enc, _n = working_precision(f, g, i, j)
    assert enc._probe.p == enc.precision_used


def test_the_shrink_precondition_probes_each_precision_once(monkeypatch) -> None:
    f, g = EXT_CURVED
    rec = refine_sequence(*curved_pair(), 3).records[2]
    probes = []
    enclose = parity_module.alpha_enclosure

    def recording_enclosure(*args):
        probes.append(args[-1])
        return enclose(*args)

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    out = shrink_pair(f, g, rec.i, rec.j, rec.m + 1)
    assert probes == list(range(3, 11))
    # the same step with the parity counted over both whole windows
    monkeypatch.undo()
    monkeypatch.setattr(
        refine_module, "_near_sweep", lambda f, g, i, j, n, enc: whole(f, g, i, j, n)
    )
    assert shrink_pair(f, g, rec.i, rec.j, rec.m + 1) == out
