"""The pad of a clearance probe.

A probe at precision p measures the endpoint clearance between the
base-point polylines and widens it by 1.5 * 2^-p per side: each measured
endpoint lies within 2^-(p+2) of the curve's, and each polyline within
1.25 * 2^-p of its curve.  Its square root is enclosed to 2^-(p+3).  So
at every precision the enclosure must hold the exact clearance, and its
width must be at most 3 * 2^-p + 2^-(p+3), which a pad of 6 * 2^-p (the
spiral tracks' error) exceeds.  The exact clearances come from the
polylines' vertex lists (`ref_sq_clearance`) and, for quadratic Bezier
pairs, from the float subdivision oracle, within its tolerance.  The
pairs and windows are those of `test_working_precision.py` and
`test_margin_oracles.py`, drawn from the same seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import curvemeet.parity as parity_module
from curvemeet import (
    PolylinePath,
    QuadBezierPath,
    Side,
    curved_pair,
    extend,
    interval,
    pow2,
    pt,
    working_precision,
)
from curvemeet.parity import alpha_enclosure

from subdivision_oracle import point_distance, sub_curve
from test_margin_oracles import _ctrl, _polyline, _window
from test_near_sweep import SPIKE, SPIKE_TOP, _offset
from test_working_precision import IDS, WINDOWS, _case, ref_sq_clearance

F = Fraction
PRECISIONS = range(11)
TOL = 1e-9  # the subdivision oracle's parameter width and its slack


def _max_width(p: int) -> Fraction:
    return 3 * pow2(-p) + pow2(-(p + 3))


def _holds_exactly(enc, sq_clearance: Fraction, p: int) -> None:
    assert enc.lo**2 <= sq_clearance <= enc.hi**2, p
    assert enc.hi - enc.lo <= _max_width(p), p


@pytest.mark.parametrize("window", WINDOWS, ids=IDS)
def test_every_precision_holds_the_exact_clearance(window) -> None:
    f, g, c1, c2, i, j = _case(*window)
    sq = ref_sq_clearance(c1, c2, i, j)
    for p in PRECISIONS:
        _holds_exactly(alpha_enclosure(f, g, i, j, p), sq, p)


def test_random_polyline_windows_hold_the_exact_clearance() -> None:
    # the pairs and windows of test_polyline_windows_match_the_ball_classifier
    rng = random.Random(3407)
    for _ in range(12):
        p, q = _polyline(rng, True), _polyline(rng, False)
        f, g = PolylinePath(p), PolylinePath(q)
        c1, c2 = ([(t, x, y) for t, (x, y) in c] for c in (p, q))
        for _ in range(16):
            i, j = _window(rng), _window(rng)
            sq = ref_sq_clearance(c1, c2, i, j)
            for n in PRECISIONS:
                _holds_exactly(alpha_enclosure(f, g, i, j, n), sq, n)


def _bezier_clearance(c1, c2, i, j) -> tuple[float, float]:
    """(lo, hi) around the endpoint clearance of the Bezier arcs c1 on
    i and c2 on j, from the subdivision oracle."""
    arcs = [sub_curve(c, float(w.lo), float(w.hi)) for c, w in ((c1, i), (c2, j))]
    bounds = [
        point_distance(arcs[1 - k], arcs[k][end], TOL) for k in (0, 1) for end in (0, 2)
    ]
    return min(lo for lo, _hi in bounds), min(hi for _lo, hi in bounds)


def test_random_bezier_windows_hold_the_exact_clearance() -> None:
    # the pairs and windows of test_bezier_windows_match_the_subdivision_solver
    rng = random.Random(3411)
    for _ in range(10):
        c1, c2 = _ctrl(rng, True), _ctrl(rng, False)
        f, g = (QuadBezierPath(*(pt(x, y) for x, y in c)) for c in (c1, c2))
        floats = [tuple((float(x), float(y)) for x, y in c) for c in (c1, c2)]
        for _ in range(12):
            i, j = _window(rng), _window(rng)
            lo, hi = _bezier_clearance(*floats, i, j)
            for p in PRECISIONS:
                enc = alpha_enclosure(f, g, i, j, p)
                assert float(enc.lo) <= hi + TOL and lo - TOL <= float(enc.hi), p
                assert enc.hi - enc.lo <= _max_width(p), p


def test_the_curved_window_is_certified_and_counted_on_one_probe_at_3(
    monkeypatch,
) -> None:
    # the probe at 3 certifies [3/8, 49/64] and n = 3 on turn-point
    # polylines of 65 and 115 points
    f, g = (extend(c, side) for c, side in zip(curved_pair(), Side))
    i, j = interval(0, 1), interval("-1/8", "7/8")
    probes, sizes = [], []
    enclose, turn_points = parity_module.alpha_enclosure, parity_module._turn_points

    def recording_enclosure(*args):
        probes.append(args[-1])
        return enclose(*args)

    def recording_turn_points(*args):
        poly = turn_points(*args)
        sizes.append(len(poly.verts))
        return poly

    monkeypatch.setattr(parity_module, "alpha_enclosure", recording_enclosure)
    monkeypatch.setattr(parity_module, "_turn_points", recording_turn_points)
    enc, n = working_precision(f, g, i, j)
    assert probes == [3] and n == 3
    assert (enc.lo, enc.hi, enc.precision_used) == (F(3, 8), F(49, 64), 3)
    assert max(sizes) <= 115


def test_the_pad_covers_a_missed_spike_and_both_vertex_errors() -> None:
    # g is the spike, its values at precision 5 moved 31/1024 down; f
    # rises from 129/512 above the spike's tip, its values at 5 moved
    # 31/1024 up.  The clearance is 133/1024, from f's first endpoint to
    # the tip, but the probe at 3 misses the spike and measures 320/1024,
    # 187/1024 too far: only a pad of at least that much holds it
    start, end = (SPIKE_TOP, "129/512"), (SPIKE_TOP, "641/512")
    f = _offset(PolylinePath([(0, start), (1, end)]), F(31, 1024), 5)
    g = _offset(SPIKE, F(-31, 1024), 5)
    unit = interval(0, 1)
    enc = alpha_enclosure(f, g, unit, unit, 3)
    assert enc.lo == F(128, 1024) < F(133, 1024) < enc.hi
