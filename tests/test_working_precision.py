"""The working precision of a window-parity query.

`working_precision` takes the clearance enclosure of `certify_alpha` and
tightens its floor by probes below the precision it certifies.  The
enclosures are checked here against exact clearances: squared distances,
in `Fraction`s, from each window's endpoint values to the other curve's
polyline image, computed from the polylines' vertex lists alone and
sharing no code with `alpha_enclosure`.  Each probe's enclosure must
also equal the one measured between spiral tracks (`ref_alpha_enclosure`),
and a window query must run without the spiral or separated tracks.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import curvemeet._fastgeom as fastgeom_module
import curvemeet.parity as parity_module
import curvemeet.paths as paths_module
import curvemeet.track as track_module
from curvemeet import (
    PolylinePath,
    Side,
    certify_alpha,
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
from curvemeet.errors import EffortExhausted
from curvemeet.exact_geom import smallest_n_below

from ref_track import ref_alpha_enclosure

F = Fraction

# ------------------------------------------------------------ reference

# polyline vertices (t, x, y); the extended curves carry their tails
DIAG_PHI = [(-1, -1, 0), (0, 0, 0), (1, 1, 1), (2, 2, 1)]
DIAG_PSI = [(-1, -1, 1), (0, 0, 1), (1, 1, 0), (2, 2, 0)]
ZIGZAG = [(0, 0, 0), (F(1, 3), F(4, 5), F(2, 5)), (F(2, 3), F(1, 5), F(3, 5)), (1, 1, 1)]
ANTI = [(0, 0, 1), (1, 1, 0)]


def _at(poly, t: Fraction) -> tuple[Fraction, Fraction]:
    for (t0, x0, y0), (t1, x1, y1) in zip(poly, poly[1:]):
        if t0 <= t <= t1:
            u = F(t - t0) / (t1 - t0)
            return x0 + u * (x1 - x0), y0 + u * (y1 - y0)
    raise ValueError(f"{t} outside the polyline")


def _image(poly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    inner = [(F(x), F(y)) for t, x, y in poly if lo < t < hi]
    return [_at(poly, lo), *inner, _at(poly, hi)]


def _sq_dist(z, pts) -> Fraction:
    """Squared distance from z to the polyline through pts."""
    best = None
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        dx, dy = bx - ax, by - ay
        u = ((z[0] - ax) * dx + (z[1] - ay) * dy) / (dx * dx + dy * dy)
        u = min(F(1), max(F(0), u))
        ex, ey = z[0] - ax - u * dx, z[1] - ay - u * dy
        d = ex * ex + ey * ey
        best = d if best is None else min(best, d)
    return best


def ref_sq_clearance(c1, c2, i, j) -> Fraction:
    """The squared endpoint clearance of c1 on i and c2 on j."""
    img1, img2 = _image(c1, i.lo, i.hi), _image(c2, j.lo, j.hi)
    return min(
        _sq_dist(img1[0], img2),
        _sq_dist(img1[-1], img2),
        _sq_dist(img2[0], img1),
        _sq_dist(img2[-1], img1),
    )


# ------------------------------------------------------------ cases

_zig = PolylinePath(
    [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
)
_diag_phi, _anti = diagonal_pair()

# name -> (f, g, reference polylines of f and g)
PAIRS = {
    "diagonals": (
        extend(_diag_phi, Side.LOWER),
        extend(_anti, Side.UPPER),
        DIAG_PHI,
        DIAG_PSI,
    ),
    # the windows workload's zigzag pair, extended by its tails
    "zigzag": (
        extend(_zig, Side.LOWER),
        extend(_anti, Side.UPPER),
        [(-1, -1, 0), *ZIGZAG, (2, 2, 1)],
        DIAG_PSI,
    ),
    "three_crossing": (_zig, _anti, ZIGZAG, ANTI),
}

WINDOWS = [
    ("diagonals", "-1", "2", "-1", "2"),
    ("diagonals", "3/8", "5/8", "3/8", "5/8"),
    ("diagonals", "-1", "-1/2", "1/4", "3/4"),
    ("zigzag", "-1", "2", "-1", "2"),
    ("zigzag", "-1", "2", "-1/2", "1"),
    ("zigzag", "-1", "1/2", "1", "3/2"),
    ("three_crossing", "5/8", "1", "0", "1"),
    ("three_crossing", "0", "1", "0", "3/8"),
    ("three_crossing", "0", "1", "0", "1/4"),
    ("three_crossing", "0", "1", "0", "1/8"),
    ("three_crossing", "0", "1/2", "0", "3/8"),
    ("three_crossing", "0", "1/4", "0", "1/2"),
    ("three_crossing", "0", "1/4", "3/4", "1"),
    ("three_crossing", "1/4", "3/4", "1/4", "3/4"),
]
IDS = [" ".join(w) for w in WINDOWS]


def _case(name, *bounds):
    f, g, c1, c2 = PAIRS[name]
    return f, g, c1, c2, interval(*bounds[:2]), interval(*bounds[2:])


# ------------------------------------------------------------ tests


@pytest.mark.parametrize("window", WINDOWS, ids=IDS)
def test_enclosure_holds_the_exact_clearance(window) -> None:
    f, g, c1, c2, i, j = _case(*window)
    enc, n = working_precision(f, g, i, j)
    assert enc.lo**2 <= ref_sq_clearance(c1, c2, i, j) <= enc.hi**2
    assert 16 * pow2(-n) < enc.lo
    assert n == smallest_n_below(enc.lo / 16)


@pytest.mark.parametrize("window", WINDOWS, ids=IDS)
def test_precision_is_never_above_certify_alone(window) -> None:
    f, g, _c1, _c2, i, j = _case(*window)
    alone = smallest_n_below(certify_alpha(f, g, i, j).lo / 16)
    _enc, n = working_precision(f, g, i, j)
    assert n <= alone
    # the parity at n is the parity at the precision certify_alpha sets
    assert function_parity(f, g, i, j) == function_parity(f, g, i, j, n=alone)


@pytest.mark.parametrize("window", WINDOWS, ids=IDS)
def test_every_added_probe_is_below_the_precision_it_lowers(
    window, monkeypatch
) -> None:
    f, g, _c1, _c2, i, j = _case(*window)
    certified, first_probes, added = [], [], []
    enclose, certify = parity_module.alpha_enclosure, parity_module.certify_alpha

    def recording_enclosure(*args):
        enc = enclose(*args)
        (added if certified else first_probes).append(enc)
        return enc

    def recording_certify(*args, **kwargs):
        certified.append(certify(*args, **kwargs))
        return certified[-1]

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    monkeypatch.setattr(parity_module, "certify_alpha", recording_certify)
    enc, n = working_precision(f, g, i, j)
    first = certified[0]
    # certify_alpha probes consecutive precisions from min(5, effort)
    assert [e.precision_used for e in first_probes] == list(
        range(5, first.precision_used + 1)
    )
    lo, hi, probe = first.lo, first.hi, first.precision_used
    for e in added:
        # one bit up, below n, and only while the ceiling allows a lower n
        assert e.precision_used == probe + 1 < smallest_n_below(lo / 16)
        assert smallest_n_below(hi / 16) < smallest_n_below(lo / 16)
        lo, hi, probe = max(lo, e.lo), min(hi, e.hi), e.precision_used
    assert (enc.lo, enc.hi, enc.precision_used) == (lo, hi, probe)
    assert n == smallest_n_below(lo / 16)


def test_probes_stay_within_effort(monkeypatch) -> None:
    f, g, _c1, _c2, i, j = _case("three_crossing", "5/8", "1", "0", "1")
    probes = []
    enclose = parity_module.alpha_enclosure

    def recording_enclosure(*args):
        probes.append(args[-1])
        return enclose(*args)

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    enc, n = working_precision(f, g, i, j, effort=7)
    assert max(probes) == enc.precision_used == 7
    assert 16 * pow2(-n) < enc.lo


def test_no_probe_once_the_ceiling_allows_no_lower_precision(monkeypatch) -> None:
    # [1/127, 1/126] at precision 5 certifies n = 11, and no floor under
    # the ceiling 1/126 certifies less, so no probe can pay off
    f, g, _c1, _c2, i, j = _case("three_crossing", "5/8", "1", "0", "1")
    tight = parity_module.AlphaEnclosure(F(1, 127), F(1, 126), 5)

    def no_probe(*args):
        raise AssertionError("probed although n cannot fall")

    monkeypatch.setattr(parity_module, "certify_alpha", lambda *a, **k: tight)
    monkeypatch.setattr(parity_module, "alpha_enclosure", no_probe)
    assert working_precision(f, g, i, j) == (tight, 11)


def test_barely_positive_first_floor_is_tightened() -> None:
    # the probe at precision 6 gives the floor 1/128, which alone sets
    # n = 12; the probe at 8 gives 21/256 and certifies n = 8
    f, g, _c1, _c2, i, j = _case("three_crossing", "5/8", "1", "0", "1")
    assert smallest_n_below(certify_alpha(f, g, i, j).lo / 16) == 12
    enc, n = working_precision(f, g, i, j)
    assert n <= 8 and enc.lo == F(21, 256)


def _recording_probes(monkeypatch) -> tuple[list[int], list[int]]:
    """Record each probe's precision, and the points of each grid the
    probes evaluate (`paths._grid_bounds` raises before a grid over the
    budget is evaluated, so that one is not recorded)."""
    probes, grids = [], []
    enclose, bounds = parity_module.alpha_enclosure, paths_module._grid_bounds

    def recording_enclosure(*args):
        probes.append(args[-1])
        return enclose(*args)

    def recording_bounds(*args):
        e, k0, k1 = bounds(*args)
        grids.append(k1 - k0 + 3)
        return e, k0, k1

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    monkeypatch.setattr(paths_module, "_grid_bounds", recording_bounds)
    return probes, grids


def test_a_zero_floor_is_probed_one_bit_higher_first(monkeypatch) -> None:
    # the probes at 5 and 6 give the floor 0, and the one at 7 the floor
    # 3/128
    f, g, _c1, _c2, i, j = _case("three_crossing", "1/4", "3/4", "1/4", "3/4")
    probes, _grids = _recording_probes(monkeypatch)
    enc = certify_alpha(f, g, i, j)
    assert probes == [5, 6, 7] and enc.lo == F(3, 128)
    probes.clear()
    enc, n = working_precision(f, g, i, j)
    assert max(probes) <= 8 and probes == [5, 6, 7, 8]
    assert 16 * pow2(-n) < enc.lo
    assert function_parity(f, g, i, j) == 1


def test_a_barely_clear_record_is_certified_at_the_first_positive_floor(
    monkeypatch,
) -> None:
    # on the last record of three curved rounds every probe up to 15 gives
    # the floor 0; the one at 16 certifies, and no probe's grid holds more
    # than 377 points
    phi, psi = curved_pair()
    rec = refine_sequence(phi, psi, 3).records[3]
    f, g = extend(phi, Side.LOWER), extend(psi, Side.UPPER)
    probes, grids = _recording_probes(monkeypatch)
    enc = certify_alpha(f, g, rec.i, rec.j)
    assert probes == list(range(5, 17))
    assert enc.precision_used == 16 and enc.lo == F(1, 32768)
    assert max(grids) == 377


def test_shrink_pair_on_barely_clear_curved_records_sizes_small_grids(
    monkeypatch,
) -> None:
    # on records 3, 7 and 8 of eight curved rounds the clearance probes
    # climb to precision 16, 32 and 36; no grid that the step sizes, for a
    # probe or for the shrink, holds more than 80 385 points
    phi, psi = curved_pair()
    records = refine_sequence(phi, psi, 8).records
    f, g = extend(phi, Side.LOWER), extend(psi, Side.UPPER)
    _probes, grids = _recording_probes(monkeypatch)
    for rec in (records[3], records[7], records[8]):
        i, j = shrink_pair(f, g, rec.i, rec.j, rec.m + 1)
        assert rec.i.contains_interval(i) and rec.j.contains_interval(j)
    assert max(grids) <= 80385


# zero-clearance queries: the probe precisions, and the largest grid sized
# for a probe; the probes climb one bit at a time until precision `effort`
# or until a probe's grid would pass the budget, which raises
# EffortExhausted before that grid is evaluated
ZERO_CLEARANCE = {
    "diagonal_on_itself": (
        lambda f, g: certify_alpha(f, f, interval(0, 1), interval(0, 1), effort=10),
        "diagonals",
        list(range(5, 11)),
        8193,
    ),
    "endpoint_on_curve": (
        lambda f, g: function_parity(f, g, interval("1/2", 2), interval(-1, 2)),
        "diagonals",
        list(range(5, 17)),
        786433,
    ),
    "endpoint_on_curve_effort_8": (
        lambda f, g: function_parity(
            f, g, interval("1/2", 2), interval(-1, 2), effort=8
        ),
        "diagonals",
        list(range(5, 9)),
        6145,
    ),
    "three_crossing": (
        lambda f, g: function_parity(f, g, interval("1/3", 1), interval(0, "1/2")),
        "three_crossing",
        list(range(5, 19)),
        699052,
    ),
}


@pytest.mark.parametrize("name", sorted(ZERO_CLEARANCE))
def test_zero_clearance_fails_within_the_grid_budget(
    name, monkeypatch
) -> None:
    query, pair, want_probes, largest_grid = ZERO_CLEARANCE[name]
    f, g = PAIRS[pair][:2]
    probes, grids = _recording_probes(monkeypatch)
    with pytest.raises(EffortExhausted):
        query(f, g)
    assert probes == want_probes
    assert max(grids) <= largest_grid


# ------------------------------------------------------------ route

# the separated-track route and the far test, which a window query skips
SKIPPED = (
    "n_approximation",
    "separated_vertices",
    "spiral_search",
    "min_sqdist_exceeds",
)
MODULES = (parity_module, paths_module, track_module, fastgeom_module)
BUILTIN = [
    (*(extend(c, side) for c, side in zip(pair(), Side)), interval(-1, 2))
    for pair in (diagonal_pair, curved_pair)
]


def test_window_queries_skip_the_separated_route(monkeypatch) -> None:
    def skipped(*args, **kwargs):
        raise AssertionError("a window query reached the separated-track route")

    # only the names a module binds itself: a name that a module's
    # __getattr__ forwards would be written into it by the undo
    for module in MODULES:
        for name in SKIPPED:
            if name in vars(module):
                monkeypatch.setattr(module, name, skipped)
    for window in WINDOWS:
        f, g, _c1, _c2, i, j = _case(*window)
        working_precision(f, g, i, j)
        function_parity(f, g, i, j)
    for f, g, full in BUILTIN:
        working_precision(f, g, full, full)
        assert function_parity(f, g, full, full) == 1
    monkeypatch.undo()
    assert "n_approximation" not in vars(paths_module)
    assert paths_module.n_approximation is track_module.n_approximation


@pytest.mark.parametrize("window", WINDOWS, ids=IDS)
def test_probes_equal_the_spiral_track_enclosure(window, monkeypatch) -> None:
    f, g, _c1, _c2, i, j = _case(*window)
    probes = []
    enclose = parity_module.alpha_enclosure

    def recording_enclosure(*args):
        probes.append((args, enclose(*args)))
        return probes[-1][1]

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    working_precision(f, g, i, j)
    assert probes
    for args, enc in probes:
        assert enc == ref_alpha_enclosure(*args), args[-1]


# ------------------------------------------------------------ work cap


def _probe_leaves(monkeypatch, f, g, i, j, bounded: bool):
    """How many leaf runs alpha_enclosure(f, g, i, j, 5) opens, and its
    enclosure; unbounded, each of its four distance queries runs to its
    own end on the same hierarchies."""
    opened = []
    levels = fastgeom_module.BoxLevels
    leaf, query = levels._leaf, levels.sq_dist_to_point

    def counted(self, k):
        opened.append(k)
        return leaf(self, k)

    def unbounded(self, px, py, bound=None):
        sq = query(self, px, py)
        return sq if bound is None else min(sq, bound)

    monkeypatch.setattr(levels, "_leaf", counted)
    if not bounded:
        monkeypatch.setattr(levels, "sq_dist_to_point", unbounded)
    enc = parity_module.alpha_enclosure(f, g, i, j, 5)
    monkeypatch.undo()
    return len(opened), enc


@pytest.mark.parametrize(
    "bounds", [("0", "1", "-1/8", "7/8"), ("-1/8", "7/8", "-3/8", "5/8")]
)
def test_a_probe_shares_one_bound_across_its_four_queries(bounds, monkeypatch) -> None:
    # each query's answer bounds the next, so the later queries prune
    # the leaves that cannot beat it (42 and 36 leaves unbounded, 12
    # and 29 chained)
    f, g = (extend(c, side) for c, side in zip(curved_pair(), Side))
    i, j = interval(*bounds[:2]), interval(*bounds[2:])
    chained, enc = _probe_leaves(monkeypatch, f, g, i, j, bounded=True)
    alone, want = _probe_leaves(monkeypatch, f, g, i, j, bounded=False)
    assert chained < alone
    assert enc == want
