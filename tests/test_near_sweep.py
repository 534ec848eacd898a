"""The crossing sweep on the last clearance probe.

A window-parity query without n counts on its last probe's own
polylines, at the probe's precision, and sweeps both whole windows at n
only where `effort` stopped the probes below n (`parity._near_sweep`).
These tests hold it to the sweep of both whole windows at the same
precision, whole `CrossingReport` and all, for any probe precision p: on
random windows of the builtin pairs and the three-crossing pair, on a
duck-typed oracle, a table with a non-monotone modulus and a polyline
that pauses.  They also check that every default query counts on a probe
at its own precision and evaluates and builds nothing after it, that an
effort-capped query counts the whole windows, that a far window
evaluates nothing at n, that the grid budget at n fails the probe there,
that the shrink step's precondition check probes each precision once,
and that its run checks count at n+3.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import curvemeet
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
    pow2,
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


def _recording_sweeps(monkeypatch) -> list[int]:
    """The points of both polylines of every sweep."""
    swept = []

    def recording_sweep(p, q, *levels):
        swept.append(len(p.snums) + len(q.snums))
        return _sweep(p, q, *levels)

    monkeypatch.setattr(parity_module, "_sweep", recording_sweep)
    return swept


def _logging(events: list, name: str, fn):
    def logged(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)

    return logged


def _recording_events(monkeypatch) -> list[str]:
    """Log each probe's start and end, each grid sized or evaluated and
    each hierarchy built."""
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
    return events


def _counts_on_its_last_probe(events: list[str]) -> bool:
    """Whether the last probe sized its grids and built its two
    hierarchies, and nothing was evaluated or built after it."""
    last = len(events) - events[::-1].index("probe") - 1
    tail = events[last:]
    return tail[-1] == "probed" and tail.count("levels") == 2 and "grid" in tail


# (f, g, i, j); on the last two a floor asks for one bit above its
# probe, so the query probes once more
AT_PROBE = {
    "curved": (*EXT_CURVED, interval(0, 1), interval("-1/8", "7/8")),
    "three_crossing": (ZIGZAG, ANTI, interval("5/8", 1), interval(0, 1)),
    "curved_one_bit_up": (*EXT_CURVED, interval(-1, "1/2"), interval("-7/8", 1)),
}


@pytest.mark.parametrize("name", sorted(AT_PROBE))
def test_a_query_at_its_probe_precision_evaluates_and_builds_nothing_more(
    name, monkeypatch
) -> None:
    # the last probe certifies n at its own precision, so the sweep
    # descends that probe's two hierarchies: no grid is sized or
    # evaluated and no hierarchy built once it has measured
    f, g, i, j = AT_PROBE[name]
    events = _recording_events(monkeypatch)
    assert function_parity(f, g, i, j) == 1
    assert _counts_on_its_last_probe(events)


def _default_queries():
    """The windows of `test_working_precision`, and the perfbench windows
    of all three workloads at seed 52007, as (f, g, i, j)."""
    for window in WP_WINDOWS:
        f, g, _c1, _c2, i, j = wp_case(*window)
        yield f, g, i, j
    pairs = workloads.make_pairs()
    oracles = {name: pair.build(curvemeet) for name, pair in pairs.items()}
    for workload in ("diagonals", "curved", "windows"):
        for name, i, j in workloads.make_windows(workload, 52007, pairs):
            yield (*oracles[name], interval(*i), interval(*j))


def test_default_queries_count_on_their_last_probe(monkeypatch) -> None:
    queries = list(_default_queries())
    assert len(queries) == len(WP_WINDOWS) + 32
    events = _recording_events(monkeypatch)
    for f, g, i, j in queries:
        enc, n = working_precision(f, g, i, j)
        assert n == enc.precision_used and 2 * pow2(-n) < enc.lo, (i, j)
        events.clear()
        function_parity(f, g, i, j)
        assert _counts_on_its_last_probe(events), (i, j)


# name -> (effort, the last probe's precision, n)
EFFORT_CAPPED = {"three_crossing": (4, 4, 9), "curved_one_bit_up": (5, 5, 6)}


@pytest.mark.parametrize("name", sorted(EFFORT_CAPPED))
def test_an_effort_capped_query_counts_the_whole_windows(name) -> None:
    # effort stops the probes at a floor that certifies only n, above
    # the last probe (1/128 at 4, and 1/16 at 5)
    f, g, i, j = AT_PROBE[name]
    effort, p, want_n = EFFORT_CAPPED[name]
    enc, n = working_precision(f, g, i, j, effort=effort)
    assert (enc.precision_used, n) == (p, want_n)
    assert _near_sweep(f, g, i, j, n, enc) == whole(f, g, i, j, n)
    want = function_parity(f, g, i, j, n=n)
    assert function_parity(f, g, i, j, effort=effort) == want


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


def _recording_probes(monkeypatch) -> list[int]:
    """The precision of every clearance probe, failed ones included."""
    probes = []
    enclose = parity_module.alpha_enclosure

    def recording_enclosure(*args):
        probes.append(args[-1])
        return enclose(*args)

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    return probes


def test_the_grid_budget_at_n_fails_the_probe_at_n(monkeypatch) -> None:
    # probes up to 6 fit the budget, and their floor asks for n = 7,
    # whose grid is 2^48 points: the probe at 7 fails as the whole sweep
    # at 7 does
    f = TablePath(
        [(0, (0, 0)), (1, (1, 0))],
        modulus_fn=lambda n: n + 1 if n < 7 else n + 40,
    )
    g = PolylinePath([(0, (0, "1/20")), (1, (1, "1/20"))])
    unit = interval(0, 1)
    probes = _recording_probes(monkeypatch)
    with pytest.raises(EffortExhausted, match="track grid"):
        function_parity(f, g, unit, unit)
    assert probes == [3, 4, 5, 6, 7]
    with pytest.raises(EffortExhausted, match="track grid"):
        whole(f, g, unit, unit, 7)
    # a sweep at 7 from a probe at 6 evaluates the whole windows at 7,
    # and so fails too
    far = PolylinePath([(0, (0, "3/25")), (1, (1, "3/25"))])
    with pytest.raises(EffortExhausted, match="track grid"):
        _near_sweep(f, far, unit, unit, 7, alpha_enclosure(f, far, unit, unit, 6))
    # here the probes up to 7 ask for n = 8, where the whole window's
    # grid is 2^21 points
    f = DuckCurve(
        TablePath(
            [(0, (0, "1/2")), (1, (1, "1/2"))],
            modulus_fn=lambda n: n + 1 if n < 8 else 20,
        )
    )
    g = PolylinePath([(0, ("1/40", 0)), (1, ("1/40", 1))])
    probes.clear()
    with pytest.raises(EffortExhausted, match="track grid"):
        function_parity(f, g, unit, unit)
    assert probes == [3, 4, 5, 6, 7, 8]


def test_explicit_n_sweeps_the_whole_windows(monkeypatch) -> None:
    # the floor 1/16 at precision 5 asks for n = 6, so the query without
    # n probes on at 6 and sweeps that probe's polylines, which are
    # those of the whole windows at 6
    f, g = AT_PROBE["curved_one_bit_up"][:2]
    i, j = AT_PROBE["curved_one_bit_up"][2:]
    swept = _recording_sweeps(monkeypatch)
    enc, n = working_precision(f, g, i, j)
    assert (enc.precision_used, n) == (6, 6)
    whole_points = len(_base_track(f, i, n).snums)
    whole_points += len(_base_track(g, j, n).snums)
    assert function_parity(f, g, i, j, n=n) == 1
    assert function_parity(f, g, i, j) == 1
    assert swept == [whole_points, whole_points]


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
    probes = _recording_probes(monkeypatch)
    out = shrink_pair(f, g, rec.i, rec.j, rec.m + 1)
    assert probes == list(range(3, 12))
    # the same step with the parity counted over both whole windows
    monkeypatch.undo()
    monkeypatch.setattr(
        refine_module, "_near_sweep", lambda f, g, i, j, n, enc: whole(f, g, i, j, n)
    )
    assert shrink_pair(f, g, rec.i, rec.j, rec.m + 1) == out
