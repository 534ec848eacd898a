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
    working_precision,
)
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
    certified, added = [], []
    enclose, certify = parity_module.alpha_enclosure, parity_module.certify_alpha

    def recording_enclosure(*args):
        enc = enclose(*args)
        (added if certified else []).append(enc)
        return enc

    def recording_certify(*args, **kwargs):
        certified.append(certify(*args, **kwargs))
        return certified[-1]

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    monkeypatch.setattr(parity_module, "certify_alpha", recording_certify)
    enc, n = working_precision(f, g, i, j)
    first = certified[0]
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

    for module in MODULES:
        for name in SKIPPED:
            monkeypatch.setattr(module, name, skipped, raising=False)
    for window in WINDOWS:
        f, g, _c1, _c2, i, j = _case(*window)
        working_precision(f, g, i, j)
        function_parity(f, g, i, j)
    for f, g, full in BUILTIN:
        working_precision(f, g, full, full)
        assert function_parity(f, g, full, full) == 1


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
