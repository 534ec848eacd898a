"""Crossing counts of separated tracks and crossing parity of curves.

For weakly separated tracks every incidence is a transversal interior
crossing, so counting reduces to orientation signs.  The parity of that
count is invariant across all sufficiently fine separated approximation
pairs of a curve pair whose endpoint clearance (alpha) dominates the
approximation error by a factor 16; `function_parity` certifies that
clearance from below and then counts one pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ._fastgeom import PolylineIndex, min_sqdist_exceeds, weakly_separated_ints
from .errors import (
    EffortExhausted,
    NotSeparated,
    PreconditionViolated,
    SeparationInvariantError,
)
from .exact_geom import Interval, Point, pow2, smallest_n_below, sqrt_enclosure
from .paths import PathOracle, n_approximation, n_approximation_pair
from .track import Track, common_verts

Crossing = tuple[Fraction, Fraction, Point]


@dataclass(frozen=True)
class CrossingReport:
    """Proper crossings of two tracks, ordered along the first track
    (lexicographically by segment pair)."""

    crossings: tuple[Crossing, ...]
    count: int
    parity: int

    def __post_init__(self) -> None:
        if self.count != len(self.crossings) or self.parity != self.count % 2:
            raise ValueError("inconsistent crossing report")


def _report(crossings: list[Crossing]) -> CrossingReport:
    return CrossingReport(tuple(crossings), len(crossings), len(crossings) % 2)


def crossing_count(p: Track, q: Track) -> CrossingReport:
    """Count and locate the crossings of two weakly separated tracks.

    Weak separation is verified up front, on the same integer points the
    sweep uses, by `weakly_separated_ints`: each distinct spanned line
    stabs the other track's box levels, box tests only prune and the
    integer equality decides, at about O(log N) box tests per line
    instead of O(|p| * |q|) incidence tests.  Separation rules out every
    vertex incidence, so inside the sweep a zero orientation sign is not
    a boundary case to classify but an internal consistency failure.
    """
    pi, qi, den = common_verts(p, q)
    if not weakly_separated_ints(pi, qi):
        raise NotSeparated("tracks are not weakly separated")
    qidx = PolylineIndex(qi)

    hits: list[tuple[int, int, int, int, int, int]] = []
    for i in range(len(pi) - 1):
        ax, ay = pi[i]
        bx, by = pi[i + 1]
        pminx, pmaxx = (ax, bx) if ax <= bx else (bx, ax)
        pminy, pmaxy = (ay, by) if ay <= by else (by, ay)
        for seg in qidx.overlapping(pminx, pmaxx):
            if seg[3] < pminy or seg[2] > pmaxy:
                continue
            cx, cy, dx, dy, j = seg[4], seg[5], seg[6], seg[7], seg[8]
            o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
            if o1 == 0 or o2 == 0:
                raise SeparationInvariantError(
                    "vertex incidence inside a separated crossing scan"
                )
            if (o1 > 0) == (o2 > 0):
                continue
            o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
            o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
            if o3 == 0 or o4 == 0:
                raise SeparationInvariantError(
                    "vertex incidence inside a separated crossing scan"
                )
            if (o3 > 0) == (o4 > 0):
                continue
            hits.append((i, j, o1, o2, o3, o4))

    hits.sort(key=lambda h: (h[0], h[1]))
    ps, qs = p.snums, q.snums
    crossings: list[Crossing] = []
    for i, j, o1, o2, o3, o4 in hits:
        # at u = o3/w along p's segment i and v = o1/w2 along q's segment j
        w, w2 = o3 - o4, o1 - o2
        (ax, ay), (bx, by) = pi[i], pi[i + 1]
        s = Fraction(ps[i] * w + (ps[i + 1] - ps[i]) * o3, p.sden * w)
        t = Fraction(qs[j] * w2 + (qs[j + 1] - qs[j]) * o1, q.sden * w2)
        point = Point(
            Fraction(ax * w + (bx - ax) * o3, den * w),
            Fraction(ay * w + (by - ay) * o3, den * w),
        )
        crossings.append((s, t, point))
    return _report(crossings)


@dataclass(frozen=True)
class AlphaEnclosure:
    """Interval around the endpoint clearance of a curve pair: the
    smaller of (distance of f's endpoint values to g's arc) and
    (distance of g's endpoint values to f's arc)."""

    lo: Fraction
    hi: Fraction
    precision_used: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi):
            raise ValueError("enclosure bounds out of order")


def alpha_enclosure(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, n: int
) -> AlphaEnclosure:
    """Two-sided bound on the endpoint clearance at working precision n.

    Measured between approximation tracks, then widened by the vertex
    error (2^-n) plus the polygon-vs-curve error (5 * 2^-n) per side.
    """
    p = n_approximation(f, i, n)
    q = n_approximation(g, j, n)
    pi, qi, den = common_verts(p, q)
    sq_scale = Fraction(den * den)
    qidx = PolylineIndex(qi)
    pidx = PolylineIndex(pi)
    d_f_ends = min(
        qidx.sq_dist_to_point(*pi[0]), qidx.sq_dist_to_point(*pi[-1])
    ) / sq_scale
    d_g_ends = min(
        pidx.sq_dist_to_point(*qi[0]), pidx.sq_dist_to_point(*qi[-1])
    ) / sq_scale
    e1 = sqrt_enclosure(d_f_ends, n)
    e2 = sqrt_enclosure(d_g_ends, n)
    pad = 6 * pow2(-n)
    lo = min(e1.lo, e2.lo) - pad
    hi = min(e1.hi, e2.hi) + pad
    return AlphaEnclosure(max(Fraction(0), lo), hi, n)


# Largest track, in vertices, that one clearance probe may build.  Probe
# tracks grow about twofold per bit of precision, so without a cap a
# clearance that is zero (a window endpoint on the other curve) keeps
# doubling the probe precision towards `effort` and stalls instead of
# failing.  A probe costs about 70 us per vertex (6.1 s for 87k vertices
# on a 2-CPU host under Python 3.11), so the largest probe allowed takes
# about a minute.
MAX_PROBE_VERTICES = 2**20


def _probe_vertices(f: PathOracle, i: Interval, n: int) -> Fraction:
    """Upper bound on the vertex count of f's precision-n track on i."""
    return i.width() * pow2(f.modulus(n) + 1) + 2


def certify_alpha(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    effort: int = 64,
    probe_start: int = 5,
    target: Fraction = Fraction(0),
) -> AlphaEnclosure:
    """Refine the clearance enclosure until its floor exceeds target.

    Raises PreconditionViolated if some enclosure proves the clearance
    is at most target, EffortExhausted if precision `effort` is reached
    without a decision or the next probe would build a track of more
    than MAX_PROBE_VERTICES vertices.
    """

    def probe_at(n: int) -> AlphaEnclosure:
        if max(_probe_vertices(f, i, n), _probe_vertices(g, j, n)) > MAX_PROBE_VERTICES:
            raise EffortExhausted(
                f"clearance > {target} not certified: a probe at precision"
                f" {n} would exceed {MAX_PROBE_VERTICES} track vertices"
            )
        return alpha_enclosure(f, g, i, j, n)

    enc = probe_at(probe_start)
    probe = probe_start
    hint = smallest_n_below(enc.hi / 16)
    if enc.lo <= target and hint > probe:
        probe = min(hint, effort)
        enc = probe_at(probe)
    while enc.lo <= target:
        if enc.hi <= target:
            raise PreconditionViolated(
                f"endpoint clearance is provably at most {target}"
            )
        if probe >= effort:
            raise EffortExhausted(
                f"clearance > {target} not certified up to precision {effort}"
            )
        probe = min(2 * probe, effort)
        enc = probe_at(probe)
    return enc


def function_parity(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    effort: int = 64,
    n: int | None = None,
    probe_start: int = 5,
    rng: random.Random | None = None,
) -> int:
    """Crossing parity of f on i versus g on j.

    With n omitted, a working precision satisfying 16 * 2^-n < alpha is
    certified first; passing n explicitly asserts that bound and skips
    certification.  If the approximation polygons are provably far apart
    the parity is 0 without any crossing enumeration.
    """
    if n is None:
        enc = certify_alpha(f, g, i, j, effort, probe_start)
        n = smallest_n_below(enc.lo / 16)
    p, q = n_approximation_pair(f, g, i, j, n, rng)
    pi, qi, den = common_verts(p, q)
    threshold = (11 * pow2(-n)) ** 2
    if min_sqdist_exceeds(pi, PolylineIndex(qi), threshold, den):
        return 0
    return crossing_count(p, q).parity
