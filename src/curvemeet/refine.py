"""Certified nested-interval refinement around a curve crossing.

Starting from the full extended domains, each round shrinks first the
parameter interval of one curve and then the other while keeping the
crossing parity equal to 1, so the surviving intervals always contain a
genuine intersection parameter pair.  The shrink step walks a grid fine
enough that curve values move by a sixteenth of the target radius,
decides for each grid value whether it lies within half the target
radius of the opposing image, and keeps one run of such low values
whose parity is odd; the decisions come as these runs alone, each
bounded by its high neighbours.  Each curve is evaluated at the step's
precisions only near the other.  Every reach and margin of the step is
computed from a few error terms named in one place (`_LOW` to
`_STRETCH`): by the moduli, dual descents over the box hierarchies,
first of a coarse grid of each curve and then of the walked values
found, find every stretch of either curve that a threshold can see.  A
value found is low at once if a coarse value of the opposing curve is
near enough; the rest are decided against the opposing curve's fine
polyline, its turn points at the step's precision plus `_FINE`,
evaluated only on the coarse blocks that a value still open can need,
as the moduli bound each block's fine points around its two ends (after
Johnson and Cohen's coarse-to-fine distance bounds).  The runs are read
off the values tested, and each run's parity check counts only the
stretch of the opposing curve near the run (`_shrink_decisions`).
Where both curves come as straight runs, as piecewise-linear curves
do, no grid is expanded: a value's squared distance to a segment of the
opposing polyline is convex along a run, so the low values of each run
against each segment in reach form one interval, found exactly from a
few values of the run, and each run's parity check counts the opposing
curve over its whole interval, whose polyline keeps one segment per
straight run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from ._fastgeom import BoxLevels, IntPoint, pair_over_lcm, points_over_lcm, rescale
from ._fastgeom import _seg_box, _sq_gap, seg_point_sqdist
from .errors import (
    EffortExhausted,
    InvariantViolation,
    NotConverged,
    PreconditionViolated,
)
from .exact_geom import (
    Frozen,
    Interval,
    Point,
    RationalLike,
    pow2,
    pt,
    rat,
    smallest_n_below,
    sqrt_enclosure,
)
from .parity import _last_probe, _near_sweep, certify_alpha, function_parity
from .paths import (
    _EXTENDED_DOMAIN,
    _UNIT_DOMAIN,
    PathOracle,
    Side,
    _base_points,
    _checked_bounds,
    _grid_params,
    _leaf_hull,
    _turn_points,
    _turns_of,
    _values_of,
    extend,
    grid_pieces,
    grid_values,
)

_MAX_SAMPLES = 4096  # verify_certificate's grid budget per sampled track
_NOT_CLEAR = "an interval endpoint is not clear of the opposing image"


class RefinementRecord(Frozen):
    """One accepted interval pair: at level m the images are mutually
    within 2^-m and the crossing parity on i x j is 1."""

    __slots__ = ("m", "i", "j")

    def __init__(self, m: int, i: Interval, j: Interval):
        if m < 0:
            raise ValueError("negative refinement level")
        self._store(m, i, j)


class Certificate(Frozen):
    """A nested chain of refinement records plus the final parameter
    intervals clipped back to the original unit domains."""

    __slots__ = ("records", "s_phi", "s_psi")

    def __init__(self, records: tuple, s_phi: Interval, s_psi: Interval):
        if not records:
            raise ValueError("a certificate needs at least the base record")
        for expected, rec in enumerate(records):
            if rec.m != expected:
                raise ValueError("refinement levels must count up from 0")
        for prev, rec in zip(records, records[1:]):
            if not (
                prev.i.contains_interval(rec.i)
                and prev.j.contains_interval(rec.j)
            ):
                raise ValueError("refinement records must be nested")
        if not all(_UNIT_DOMAIN.contains_interval(s) for s in (s_phi, s_psi)):
            raise ValueError("final intervals must lie in the unit domain")
        self._store(records, s_phi, s_psi)

    @property
    def final(self) -> RefinementRecord:
        return self.records[-1]


def _certified_floor(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, target: Fraction = Fraction(0)
) -> Fraction:
    """The floor above target of the endpoint clearance of (i, j) that
    `certify_alpha` returns, once the crossing parity there is certified
    to be 1.  The probes go on from that floor as a query's do
    (`parity._last_probe`), and the parity is counted on the last one
    (`_near_sweep`), so no probe runs twice; the tightened floor only
    sets where the parity is counted."""
    enc = certify_alpha(f, g, i, j, target=target)
    last, n = _last_probe(f, g, i, j, enc)
    if _near_sweep(f, g, i, j, n, last).parity != 1:
        raise PreconditionViolated("crossing parity on the input intervals is 0")
    return enc.lo


def shrink_first(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    *,
    skip_precondition_checks: bool = False,
) -> Interval:
    """Subinterval of i keeping parity 1, with f's image pulled into the
    open 2^-n neighborhood of g's image over j.

    Requires 2^-n below the endpoint clearance and parity 1 on (i, j);
    both are certified here unless the caller vouches for them.  Grid
    values of f are classified low/high against 2^-n/2, and come back
    as the maximal runs of low points, each with its two high
    neighbours (`_shrink_decisions`).  These runs split the parity
    additively, so some run is odd.  A run's parity is counted against
    g on the run's stretch of j, which holds every crossing.
    """
    if not skip_precondition_checks:
        _certified_floor(f, g, i, j, pow2(-n))
    sden, snums, runs, stretch = _shrink_decisions(f, g, i, j, n)
    for a, b in runs:
        cand = Interval(Fraction(snums[a], sden), Fraction(snums[b], sden))
        # run endpoints measured >= 2^-n/2, so the true clearance of
        # (cand, j) is at least 7/16 * 2^-n and precision n+3 satisfies
        # the parity margin 2 * 2^-(n+3) < (7/16) * 2^-n
        if function_parity(f, g, cand, stretch(a, b), n=n + 3) == 1:
            return cand
    raise InvariantViolation("no low-distance run carries an odd crossing count")


# The shrink step's error terms, in units of u = 2^-(n+10) for a step at
# precision n; a value read at precision p lies within 2^-p of the curve.
# `_shrink_decisions` and `_two_grid_lows` derive each rule from them.
# r: a value is low nearer than _LOW, and an end value not clear nearer
# than _CLEAR
_LOW, _CLEAR = 512, 513
_FINE = 5  # g's fine polyline is `_turn_points(g, ., n + _FINE)`
_DECISION_ERR = 2  # a decision value of f, read at n+9
_FINE_ERR = Fraction(2) ** (8 - _FINE)  # a fine vertex, read at n+_FINE+2
_FINE_DEV = Fraction(5, 4) * 2 ** (10 - _FINE)  # the fine polyline from g
_COARSE_ERR = Fraction(1, 2)  # a value of coarse g, read at n+11
_G_DRIFT = 64  # g over a block of coarse g, by the modulus at n+4
_F_DRIFT = 512 + 2 * _DECISION_ERR  # a decision value over a coarse f block
_STEP = 64  # f over a step of the decision grid, by the modulus at n+4
_CHECK_DEV = 160  # a parity check's polylines at n+3 from their curves
# a fine point of a coarse g block from the values at the block's ends
_DEV = math.ceil(_G_DRIFT + _FINE_ERR + _COARSE_ERR)
# a coarse g value within (r - _SETTLE)u of a value settles it low
_SETTLE = math.ceil(_FINE_ERR + _COARSE_ERR)
_NEAR = _CLEAR + _DEV  # the second descent's reach
_FAR = _NEAR + _F_DRIFT  # the first descent's reach
# a crossing's g block from a low value of its run (stretch(a, b))
_STRETCH = math.ceil(2 * _CHECK_DEV + _STEP + _DECISION_ERR + _G_DRIFT + _COARSE_ERR)


def _shrink_decisions(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, n: int
) -> tuple[int, list[int], list[tuple[int, int]], Callable[[int, int], Interval]]:
    """(sden, snums, runs, stretch): f's grid on i, point k at snums[k] /
    sden; runs, in ascending order, the pairs (a, b) of points such that
    the values a+1 to b-1 are low and form a maximal run of low values;
    and stretch(a, b), the part of j that the parity check of such a
    run needs.  PreconditionViolated if an endpoint value is not clear
    of g's image over j.

    Below, u = 2^-(n+10), the unit of the error terms named above.  The
    grid is `dyadic_grid(i.lo, i.hi, f.modulus(n + 4))`, so consecutive
    values move by less than _STEP = 2^-n/16.  Each value, read at n+9
    (_DECISION_ERR), is decided against its exact squared distance q to
    g's fine polyline, `_turn_points(g, j, n + _FINE)`: g's values read
    at n+7 (_FINE_ERR) on the grid of g.modulus(n + 5), which lies
    within _FINE_DEV = 1.25 * 2^-(n+5) of g at every parameter (the
    bound of `parity`'s module docstring).  So the distance error is at
    most _DECISION_ERR + _FINE_DEV = 42u, within 2^-(n+4) = 64u, and a
    kept run's ends, measured at least 2^-n/2 = 512u from g, are clear
    by 470u > 7/16 * 2^-n, as the parity check at n+3 needs.  With the
    rounded rule lo = isqrt(floor(q*4^(n+10)))/2^(n+10) against half =
    2^-n/2 = 512u:
      lo <  half  iff  q < 4^-(n+1)           (low value)
      lo <= half  iff  q < 513^2 * 4^-(n+10)  (endpoint not clear)
    so the classification equals the rounded one without forming lo.
    For a value x let r = _LOW = 512, or _CLEAR = 513 if x is an end
    value: x is low, or an end not clear, iff the fine polyline comes
    closer than ru.
    The budgets of both grids are checked before anything is evaluated.

    Where both curves are straight, each run of f's decision grid is
    decided whole (the straight route).  It is taken when coarse g and
    then coarse f (below), which the coarse route evaluates first and
    reads once as pieces (`grid_pieces`), each have a piece and all
    their pieces are straight runs, and then f's decision grid and g's
    fine grid (`grid_runs`) are straight runs as well; a list piece
    there sends the step to the coarse route, which reuses the coarse
    grids.  So on a Bezier or a duck-typed curve the choice evaluates
    nothing that the coarse route does not.  On a straight run, the
    value at index k is A + kB, and its squared distance q(k) to a
    segment s of the fine polyline is convex in k: the distance to a
    convex set is convex, so is its composition with an affine map, and
    so is its square.  So the indices with q < 4^-(n+1) form one
    interval (`_low_span`).  A value is low iff such an interval holds
    it, and such an s lies within 2^-(n+1) = 512u of the run's segment,
    and so does its box.  One dual descent over the polyline through
    the runs' ends and the fine polyline pairs the leaf of each run's
    segment with the leaves of all such s, and each s there whose box is
    in reach is tried, until one holds the whole run.  The runs are the
    maximal runs of the union of these intervals; the window ends, on no
    run, are tested against the whole fine polyline by the rule for
    ends.  So every answer is the full form's.  stretch(a, b) is j
    itself; g's polyline there keeps only the ends of each straight run.

    On the coarse route, only values near the other curve are
    evaluated at these precisions, indexed and tested.  Coarse g is g
    read at n+11 (_COARSE_ERR) on `dyadic_grid(j.lo, j.hi, md)` with md
    = min(g.modulus(n + 4), g.modulus(n + _FINE)): a subset of the fine
    grid, since that grid is the multiples of a smaller or equal power
    of two, so each block between coarse neighbours is a run of fine
    steps, for any modulus.  A block spans less than 2^-md, so g moves
    over it by less than _G_DRIFT = 2^-(n+4), and every point of the
    fine polyline on it lies within _DEV = _G_DRIFT + _FINE_ERR +
    _COARSE_ERR (rounded up) of both values read at its ends.  No step
    assumes that two reads of one parameter agree.  Coarse f is f at
    n+9 on the grid of min(f.modulus(n + 1), f.modulus(n + 4)), in the
    same way a subset of the decision grid, so every decision value in
    a block between coarse f neighbours is within _F_DRIFT = 2^-(n+1) +
    2 * _DECISION_ERR of both ends of that block.

    So if a decision value x is within 513u of the fine polyline, at a
    point of some coarse g block, both ends of that block are within
    _NEAR = _CLEAR + _DEV of x, and within _FAR = _NEAR + _F_DRIFT of
    both ends of x's coarse f block.  A dual descent (`BoxLevels.near_leaves`)
    pairs coarse f's leaf boxes with coarse g's at most _FAR apart, and
    the decision grid is evaluated only on each maximal run of paired
    coarse f leaves (`BoxLevels.spans`).  A second descent pairs the
    leaves of the evaluated values with coarse g's at most _NEAR apart,
    so a leaf holding x is paired with the coarse leaf holding that
    block.  Only values in paired leaves are tested (`_two_grid_lows`);
    one not tested is at least 513u from the whole fine polyline: high
    and clear, as in the full form.  So the runs are the maximal runs of
    consecutive points among the values found low; the endpoints 0 and k
    are never low.

    stretch(a, b) is the hull of the coarse g leaves paired with the
    leaves of the values a+1 to b-1, widened outward to points of g's
    grid at precision n+3 and clipped to j (`paths._leaf_hull`).  The
    parity check counts the crossings of P, f's polyline on [s_a, s_b]
    at precision n+3, with Q, g's, translated by an infinitesimal t
    (`function_parity`); each lies within _CHECK_DEV = 1.25 * 2^-(n+3)
    of its curve at every parameter.  Each crossing lies on a segment
    of Q, between grid points u_k and u_k+1, that meets P at t = 0 in
    some point p, on a segment of P from its grid point s.  p is within
    _CHECK_DEV of f(s); as b - a >= 2, s is less than one decision step
    from a point among a+1 to b-1, so f(s) is within _STEP of it, and
    its low decision value x within _DECISION_ERR more.  So g(u_k),
    within _CHECK_DEV of p, is near x, and both ends of the coarse block
    holding u_k, _G_DRIFT + _COARSE_ERR farther, within _STRETCH = 451u,
    below _NEAR: x's leaf is paired with that block's leaf, and u_k, as
    u_k+1, lies in the hull, on Q's grid and in j.  Q on stretch(a, b),
    whose ends are points of Q's grid, is Q's part there, parameter by
    parameter, so the check counts exactly the crossings over all of j.
    """
    f_md, g_md = f.modulus(n + 4), g.modulus(n + _FINE)
    _checked_bounds(g, j, g_md)
    e, k0, k1 = _checked_bounds(f, i, f_md)
    sden, snums = _grid_params(i.lo, i.hi, e, range(k0, k1 + 1))
    k = len(snums) - 1
    coarse_g = grid_pieces(g, j, min(g.modulus(n + 4), g_md), n + 11)
    coarse_f = grid_pieces(f, i, min(f.modulus(n + 1), f_md), n + 9)
    if _straight(coarse_g, coarse_f):
        if (runs := _straight_decisions(f, g, i, j, n)) is not None:
            return sden, snums, runs, lambda a, b: j
    cf_den, cfv = _values_of(f, i, n + 9, coarse_f)[2:]
    csden, csnums, c_den, cv = _values_of(g, j, n + 11, coarse_g)
    cf, cg, den = pair_over_lcm(cf_den, cfv, c_den, cv)
    reach = -(-_FAR * den >> (n + 10))  # rounded up
    cf_levels, cg_levels = BoxLevels(cf), BoxLevels(cg)
    coarse_near = cf_levels.near_leaves(cg_levels, reach * reach)

    # f's decision values on each run of paired coarse leaves, the value
    # at position p being that of decision point ts[p]; coarse point c
    # is decision point fine[c]
    ce, ck0 = coarse_f[:2]
    last = len(cfv) - 1
    fine = [0, *(((ck0 + c) << (e - ce)) - k0 + 1 for c in range(last - 1)), k]
    spans = [(fine[a], fine[b]) for a, b in cf_levels.spans(c for c, _ in coarse_near)]
    pieces = [
        grid_values(f, *(Fraction(snums[t], sden) for t in ab), f_md, n + 9)[2:]
        for ab in spans
    ]
    m = math.lcm(den, *(d for d, _ in pieces)) // den
    den *= m
    fv = [z for d, pv in pieces for z in rescale(pv, den // d)]
    ts = [t for a, b in spans for t in range(a, b + 1)]
    reach = -(-_NEAR * den >> (n + 10))
    fv_levels = BoxLevels(fv) if fv else None
    cg_levels = cg_levels.scaled(m)
    near = fv_levels.near_leaves(cg_levels, reach * reach) if fv else []
    # the values of each paired f leaf, as (decision point, x, y)
    leaf_values: dict[int, list] = {}
    for fk, _ in near:
        if fk not in leaf_values:
            a, b = fv_levels.span(fk)
            leaf_values[fk] = [(ts[p], *fv[p]) for p in range(a, b + 1)]
    lows = []
    if fv:
        lows = _two_grid_lows(
            g, n, k, den, leaf_values, near, fv_levels, cg_levels, csden, csnums
        )
    runs = _low_runs((t, t) for t in lows)

    # each pair as the first and last decision point of its f leaf and
    # its coarse g leaf
    leaf_pairs = [(leaf_values[fk][0][0], leaf_values[fk][-1][0], l) for fk, l in near]

    def stretch(a: int, b: int) -> Interval:
        leaves = (l for t0, t1, l in leaf_pairs if t0 < b and t1 > a)
        return _leaf_hull(g, j, n + 3, csden, csnums, cg_levels.spans(leaves))

    return sden, snums, runs, stretch


def _two_grid_lows(
    g: PathOracle,
    n: int,
    k: int,
    den: int,
    leaf_values: dict[int, list],
    near: list[tuple[int, int]],
    fv_levels: BoxLevels,
    cg_levels: BoxLevels,
    csden: int,
    csnums: list[int],
) -> list[int]:
    """The low decision points among the values (t, x, y) of the paired
    f leaves, leaf_values[fk], decided on coarse g and then on the fine
    polyline; PreconditionViolated for an end value, t = 0 or k, that is
    not clear.  The values and coarse g, cg_levels, are over den, and
    near pairs the leaves of fv_levels with those of cg_levels.

    With u and r as in `_shrink_decisions`, two rules serve:
      - a coarse g value within (r - _SETTLE)u of x settles it low: the
        fine polyline's point at its parameter is within _FINE_ERR +
        _COARSE_ERR of it;
      - a fine point closer than ru to x lies in a coarse block whose
        values at both ends are closer than (r + _DEV)u to x (needed
        blocks).
    x's needed blocks lie in the coarse leaves paired with x's leaf, in
    those whose boxes lie closer than (513 + _DEV)u to the leaf's box.
    A whole f leaf is settled low when one value of its nearest such
    coarse leaf is within (512 - _SETTLE)u of the four corners of its
    box, and so of each of its values.  Every other value x is low if
    one of these leaves holds a value within (r - _SETTLE)u of x (a box
    whose farthest corner is that near holds one), high if no box lies
    within (r + _DEV)u.  The values left open form one group per f
    leaf, which keeps the blocks of those coarse leaves whose ends both
    lie within (r + _DEV)u of the group's bounding box, r its largest:
    these hold every needed block of each member, and a group that
    keeps none is high.  The fine polyline is evaluated on each maximal
    run of kept blocks, as `_turn_points`, and each open value of a
    group that keeps blocks is decided by its exact squared distance to
    these pieces (`BoxLevels.any_within`).  The runs share no parameter
    and end on points of the fine grid or on j's ends, so each piece is
    the fine polyline there, and every answer is that of the full form.
    """
    shift = 2 * n + 20
    lows: list[int] = []

    def settle(t: int) -> None:
        if t in (0, k):
            raise PreconditionViolated(_NOT_CLEAR)
        lows.append(t)

    def sq(c: int, d: int) -> int:  # (c * u)^2 in units of 1/d^2, rounded up
        return -(-(c * c * d * d) >> shift)

    low = {r: sq(r - _SETTLE, den) for r in (_LOW, _CLEAR)}
    reach = {r: sq(r + _DEV, den) for r in (_LOW, _CLEAR)}
    f_boxes, g_boxes, gv = fv_levels.levels[-1], cg_levels.levels[-1], cg_levels.pts
    paired: dict[int, list[tuple[int, int]]] = {}
    for fk, l in near:
        if (gap := _sq_gap(f_boxes[fk], g_boxes[l])) < reach[_CLEAR]:
            paired.setdefault(fk, []).append((gap, l))
    seen: set[int] = set()
    open_values, kept = [], []
    for fk, values in leaf_values.items():
        values = [v for v in values if v[0] not in seen]
        seen.update(t for t, _, _ in values)
        if fk not in paired:
            continue
        ls = [l for _, l in sorted(paired[fk])]  # the nearest first
        a, b = cg_levels.span(ls[0])
        if any(_gap_far(x, y, f_boxes[fk])[1] < low[_LOW] for x, y in gv[a : b + 1]):
            for t, _, _ in values:
                settle(t)
            continue
        members = []
        for t, x, y in values:
            r, reached = (_CLEAR if t in (0, k) else _LOW), False
            for l in ls:
                gap, far = _gap_far(x, y, g_boxes[l])
                reached = reached or gap < reach[r]
                if gap < low[r]:
                    a, b = cg_levels.span(l)
                    sqs = ((x - gx) ** 2 + (y - gy) ** 2 for gx, gy in gv[a : b + 1])
                    if far < low[r] or min(sqs) < low[r]:
                        settle(t)
                        break
            else:
                if reached:
                    members.append((t, x, y, r))
        if members:
            _, xs, ys, rs = zip(*members)
            box = min(xs), max(xs), min(ys), max(ys)
            if keep := _kept_blocks(box, cg_levels.spans(ls), gv, reach[max(rs)]):
                open_values += members
                kept += keep
    # every fine point within ru of an open value lies on these pieces,
    # and each piece is part of the fine polyline
    polys = []
    for a, b in _merged(kept):
        w = Interval(Fraction(csnums[a], csden), Fraction(csnums[b], csden))
        polys.append(_turn_points(g, w, n + _FINE))
    dl = math.lcm(den, *(p.vden for p in polys))
    idxs = [BoxLevels(rescale(p.verts, dl // p.vden)) for p in polys]
    for t, x, y, r in open_values:
        x, y, sq_r = x * dl // den, y * dl // den, r * r * dl * dl
        if any(idx.any_within(x, y, sq_r, 1 << shift) for idx in idxs):
            settle(t)
    return lows


def _gap_far(x: int, y: int, box: tuple) -> tuple[int, int]:
    """The squared distances from (x, y) to the nearest and the farthest
    point of box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    xg = x0 - x if x < x0 else (x - x1 if x > x1 else 0)
    yg = y0 - y if y < y0 else (y - y1 if y > y1 else 0)
    xf = x1 - x if x1 - x > x - x0 else x - x0
    yf = y1 - y if y1 - y > y - y0 else y - y0
    return xg * xg + yg * yg, xf * xf + yf * yf


def _kept_blocks(box: tuple, runs: list, pts: list, sq_reach: int) -> list:
    """The maximal runs (a, b) of blocks a to b-1 of the points pts,
    within the runs given, whose two ends both lie closer than
    sqrt(sq_reach) to box."""
    x0, x1, y0, y1 = box
    out = []
    for a, b in runs:
        start = None
        for s, (x, y) in enumerate(pts[a : b + 1], a):
            xg = x0 - x if x < x0 else (x - x1 if x > x1 else 0)
            yg = y0 - y if y < y0 else (y - y1 if y > y1 else 0)
            if xg * xg + yg * yg < sq_reach:
                start = s if start is None else start
                continue
            if start is not None and s - 1 > start:
                out.append((start, s - 1))
            start = None
        if start is not None and b > start:
            out.append((start, b))
    return out


def _merged(runs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The runs (a, b) of blocks, sorted, with overlapping or touching
    runs merged."""
    out: list[tuple[int, int]] = []
    for a, b in sorted(runs):
        if out and out[-1][1] >= a:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _straight(*grids: tuple) -> bool:
    """Whether each grid of `grid_pieces` has pieces, all straight runs."""
    return all(pcs and all(isinstance(p, tuple) for p in pcs) for *_, pcs in grids)


def _straight_decisions(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, n: int
) -> list[tuple[int, int]] | None:
    """`_shrink_decisions`' runs from the straight runs of f's decision
    grid, each decided whole, or None if f's decision grid or g's fine
    grid has a list piece."""
    fine_g = grid_pieces(g, j, g.modulus(n + _FINE), n + _FINE + 2)
    _, k0, _, f_den, f_pieces = fine_f = grid_pieces(f, i, f.modulus(n + 4), n + 9)
    if not _straight(fine_f, fine_g):
        return None
    g_den, gv = _turns_of(g, j, n + _FINE + 2, fine_g)[2:]
    e_den, ends = points_over_lcm([f.eval_approx(t, n + 9) for t in (i.lo, i.hi)])
    den = math.lcm(f_den, e_den, g_den)
    ends, gv, m = rescale(ends, den // e_den), rescale(gv, den // g_den), den // f_den
    runs = [(p[0], p[1], *(c * m for c in p[2:])) for p in f_pieces if p[0] <= p[1]]
    g_levels, sq = BoxLevels(gv), den * den
    not_clear = _CLEAR * _CLEAR * sq
    if any(g_levels.any_within(x, y, not_clear, 4 ** (n + 10)) for x, y in ends):
        raise PreconditionViolated(_NOT_CLEAR)
    # run r is segment 2r of the polyline through the runs' ends, and the
    # g segments within a reach of it lie in the g leaves that a dual
    # descent at that reach pairs with its leaf
    run_ends = [(ax + bx * t, ay + by * t) for *ks, ax, bx, ay, by in runs for t in ks]
    reach = -(-sq >> 2 * n + 2)  # (2^-(n+1))^2, rounded up
    f_levels = BoxLevels(run_ends)
    paired: list[list[int]] = [[] for _ in runs]
    for leaf, l in f_levels.near_leaves(g_levels, reach):
        a, b = f_levels.span(leaf)
        for r in range((a + 1) // 2, (b + 1) // 2):
            paired[r].append(l)

    lows = []
    for r, run in enumerate(runs):
        # the g segments whose boxes lie in reach of that of run r
        box = _seg_box(*run_ends[2 * r : 2 * r + 2])
        segs = (s for a, b in map(g_levels.span, paired[r]) for s in range(a, b))
        for s in (s for s in segs if _sq_gap(box, _seg_box(*gv[s : s + 2])) <= reach):
            lows.append(_low_span(run, gv[s], gv[s + 1], sq, 4 ** (n + 1)))
            if lows[-1] == run[:2]:
                break
    return _low_runs((lo - k0 + 1, hi - k0 + 1) for lo, hi in filter(None, lows))


def _low_runs(lows: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """(a, b) for each maximal run a+1 to b-1 of the union of the
    intervals lows of low points, in order."""
    runs: list[tuple[int, int]] = []
    for lo, hi in sorted(lows):
        if runs and lo <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi + 1))
        else:
            runs.append((lo - 1, hi + 1))
    return runs


def _low_span(run: tuple, c: IntPoint, d: IntPoint, rn: int, rd: int) -> tuple | None:
    """(lo, hi), the first and last index k of a straight run (ka, kb,
    ax, bx, ay, by) whose value lies at squared distance below rn/rd from
    the segment cd, or None if none does.

    The squared distance is convex in k, so these indices form one
    interval.  If both ends are low, it is the run.  Otherwise an index
    in it is an end that is low or, if there is one, an integer next to
    a point of the run's line nearest cd: where the line meets cd's
    line, or the foot of c or of d; the distance is least at one of
    them.  From there each bound is bisected, by exact tests."""
    ka, kb, ax, bx, ay, by = run
    (cx, cy), (dx, dy) = c, d

    def low(k: int) -> bool:
        num, den = seg_point_sqdist(cx, cy, dx, dy, ax + bx * k, ay + by * k)
        return num * rd < rn * den

    ends = (ka, low(ka)), (kb, low(kb))
    inside = next((k for k, is_low in ends if is_low), None)
    if inside is None:
        bb, wx, wy = bx * bx + by * by, dx - cx, dy - cy
        feet = [((px - ax) * bx + (py - ay) * by, bb) for px, py in (c, d) if bb]
        feet += [(wx * (cy - ay) - wy * (cx - ax), wx * by - wy * bx)]
        ks = {t for p, q in feet if q for t in (p // q, -(-p // q)) if ka < t < kb}
        inside = next((t for t in ks if low(t)), None)
        if inside is None:
            return None
    edges = []
    for out, is_low in ends:
        edge = out if is_low else inside
        while abs(edge - out) > 1:
            mid = (out + edge) // 2
            edge, out = (mid, out) if low(mid) else (edge, mid)
        edges.append(edge)
    return edges[0], edges[1]


def _shrink_pair_certified(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    m: int,
    alpha_lo: Fraction,
) -> tuple[Interval, Interval, Fraction]:
    """Shrink both sides given parity 1 and a clearance strictly above
    some power 2^-n with 2^-n < alpha_lo.

    Returns the new pair plus a constructive clearance lower bound for
    it, saving the next round a measurement from scratch.
    """
    n = max(m + 1, smallest_n_below(alpha_lo))
    i2 = shrink_first(f, g, i, j, n, skip_precondition_checks=True)
    # the kept run's endpoints sit at distance >= 7/16 * 2^-n from g's
    # image, and g's endpoint values only moved farther from the smaller
    # f image, so the clearance of (i2, j) is at least 7/16 * 2^-n
    n2 = max(m + 1, smallest_n_below(Fraction(7, 16) * pow2(-n)))
    j2 = shrink_first(g, f, j, i2, n2, skip_precondition_checks=True)
    return i2, j2, Fraction(7, 16) * pow2(-n2)


def shrink_pair(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, m: int
) -> tuple[Interval, Interval]:
    """One refinement round: nested subintervals with parity 1 whose
    images lie in each other's 2^-m neighborhoods."""
    return _shrink_pair_certified(f, g, i, j, m, _certified_floor(f, g, i, j))[:2]


def refine_sequence(
    phi: PathOracle,
    psi: PathOracle,
    iterations: int,
    *,
    verify_base_parity: bool = False,
) -> Certificate:
    """Pinch a crossing of two corner-to-corner unit-square paths.

    Both paths are continued by straight tails to [-1, 2].  On the full
    extended domains the crossing parity is 1 and the endpoint clearance
    is exactly 1 (each extended endpoint value is one unit away from the
    nearest point of the other extended image), so refinement can start
    unconditionally; each round at least halves the mutual neighborhood
    radius.
    """
    if iterations < 0:
        raise ValueError("negative iteration count")
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    i = j = _EXTENDED_DOMAIN
    if verify_base_parity and function_parity(f, g, i, j, n=5) != 1:
        raise InvariantViolation("base crossing parity is not 1")
    records = [RefinementRecord(0, i, j)]
    alpha_lo = Fraction(1)
    for m in range(1, iterations + 1):
        i, j, alpha_lo = _shrink_pair_certified(f, g, i, j, m, alpha_lo)
        records.append(RefinementRecord(m, i, j))
    try:
        s_phi = i.clip(_UNIT_DOMAIN)
        s_psi = j.clip(_UNIT_DOMAIN)
    except ValueError as exc:
        raise InvariantViolation(
            "refined intervals escaped the unit domain"
        ) from exc
    return Certificate(tuple(records), s_phi, s_psi)


def _check_neighborhood(
    a: PathOracle,
    ia: Interval,
    b: PathOracle,
    jb: Interval,
    level: int,
) -> None:
    """Check that a's image over ia lies within 2^-level of b's over jb.

    Each base point of a at precision n_v lies within 2^-(n_v+2) of a,
    and between grid neighbours a moves by less than 2^-n_v, so every
    point of a's image is within 1.25 * 2^-n_v of a base point; b's
    turn-point polyline lies within 1.25 * 2^-n_v of b's image at every
    parameter (`parity`'s module docstring).  So base points within
    2^-level - 2.5 * 2^-n_v of that polyline prove the radius 2^-level
    itself.  The allowance is positive only for n_v >= level + 2: if
    the sample budget does not fit there, EffortExhausted."""
    # sampling precision adapts downward until both grids fit the budget
    n_v, sides = level + 5, ((a, ia), (b, jb))
    while any(w.width() * pow2(h.modulus(n_v) + 1) > _MAX_SAMPLES for h, w in sides):
        if n_v == level + 2:
            raise EffortExhausted(
                f"neighborhood radius 2^-{level} needs more than {_MAX_SAMPLES}"
                f" samples per curve at precision {n_v}"
            )
        n_v -= 1
    # the base points of both tracks, b's with only the ends of each
    # straight run, the same polyline; a zero-length segment of a repeat
    # is a point, which the distance queries measure correctly
    ap, bp, den = pair_over_lcm(
        *_base_points(a, ia, n_v)[2:], *_turn_points(b, jb, n_v)[2:]
    )
    idx = BoxLevels(bp)
    allowed = pow2(-level) - Fraction(5, 2) * pow2(-n_v)
    lim = allowed * allowed * den * den
    # a sample fails only if its squared distance exceeds lim
    for x, y in ap:
        if not idx.any_within(x, y, lim.numerator, lim.denominator, closed=True):
            raise InvariantViolation(
                f"neighborhood radius 2^-{level} fails under dense sampling"
            )


def verify_certificate(cert: Certificate, phi: PathOracle, psi: PathOracle) -> None:
    """Recheck a certificate's neighborhood chain by dense sampling.

    For every level m >= 1 the first image over I_m must stay within
    2^-(m-1) of the second image over J_{m-1}, and the second image over
    J_m within 2^-m of the first over I_m.  The samples are checked
    against the radius less their own error, so a pass proves each
    radius (`_check_neighborhood`); EffortExhausted where a record's
    intervals need more samples than the budget allows.
    """
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    for prev, rec in zip(cert.records, cert.records[1:]):
        _check_neighborhood(f, rec.i, g, prev.j, rec.m - 1)
        _check_neighborhood(g, rec.j, f, rec.i, rec.m)


class PointApproximation(Frozen):
    """A rational ball certified to contain the crossing point."""

    __slots__ = ("center", "radius", "level")

    def __init__(self, center: Point, radius: Fraction, level: int):
        if radius < 0:
            raise ValueError("negative radius")
        self._store(center, radius, level)


def extract_point(
    cert: Certificate, phi: PathOracle, eps: RationalLike
) -> PointApproximation:
    """Ball of radius at most eps around the crossing point, valid when
    the intersection is unique; phi is extended as `refine_sequence`
    extends it.

    Each record's first-curve image f(rec.i) is covered by the bounding
    box of its turn points at precision n = rec.m + 6
    (`paths._turn_points`): the base points with only the ends of each
    straight run kept, the same polyline and so the same box.  The base
    points lie within 2^-(n+2) of the curve, and between grid
    neighbours, less than 2^-modulus(n) apart, the curve moves by less
    than 2^-n, so every point of f(rec.i) is within 1.25 * 2^-n of the
    box.  The radius is the box's half diagonal, enclosed from above,
    plus 5 * 2^-n, more than that bound needs: the pad of the paper's
    n-approximation tracks.  Their boxes are never smaller, as every
    distinct base point is a track vertex, and on the builtin pairs they
    are the same, so there the balls are theirs.  The first record whose
    ball is small enough wins.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("the target radius must be positive")
    f = extend(phi, Side.LOWER)
    for rec in cert.records:
        n_ap = rec.m + 6
        den, verts = _turn_points(f, rec.i, n_ap)[2:]
        xs = [x for x, _ in verts]
        ys = [y for _, y in verts]
        x0, x1, y0, y1, d = min(xs), max(xs), min(ys), max(ys), 2 * den
        cx, cy = Fraction(x0 + x1, d), Fraction(y0 + y1, d)
        half_sq = Fraction((x1 - x0) ** 2 + (y1 - y0) ** 2, d * d)
        radius = sqrt_enclosure(half_sq, n_ap).hi + 5 * pow2(-n_ap)
        if radius <= eps:
            return PointApproximation(pt(cx, cy), radius, rec.m)
    raise NotConverged(
        f"no recorded interval encloses the crossing within {eps}"
    )
