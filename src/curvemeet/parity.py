"""Crossing counts of separated tracks and crossing parity of curves.

For weakly separated tracks every incidence is a transversal interior
crossing, so counting reduces to orientation signs.  The parity of that
count is invariant across all sufficiently fine separated approximation
pairs of a curve pair whose endpoint clearance (alpha) dominates the
approximation error by a factor 16; `function_parity` certifies that
clearance from below, picks the working precision from the tightened
floor (`working_precision`) and then counts one pair, which is separated
by construction; only `crossing_count` checks the tracks a caller passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ._fastgeom import BoxLevels, min_sqdist_exceeds
from .errors import (
    EffortExhausted,
    NotSeparated,
    PreconditionViolated,
    SeparationInvariantError,
)
from .exact_geom import Interval, Point, pow2, smallest_n_below, sqrt_enclosure
from .paths import PathOracle, n_approximation, n_approximation_pair
from .track import Track, common_verts, weakly_separated

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
    """Count and locate the crossings of two tracks from a caller, which
    must be weakly separated (`weakly_separated`), else NotSeparated."""
    if not weakly_separated(p, q):
        raise NotSeparated("tracks are not weakly separated")
    pi, qi, _den = common_verts(p, q)
    return _sweep(p, q, BoxLevels(pi), BoxLevels(qi))


def _sweep(p: Track, q: Track, pb: BoxLevels, qb: BoxLevels) -> CrossingReport:
    """The crossings of weakly separated tracks p and q, from their
    hierarchies over `common_verts`: both descend together and only
    segment pairs whose boxes overlap are oriented, so the cost is the
    overlapping box pairs level by level, not |p| * |q|.  Separation
    rules out every vertex incidence, so a zero sign is an internal
    consistency failure, not a boundary case.
    """
    hits: list[tuple[int, int, int, int, int, int]] = []
    for i, j, ax, ay, bx, by, cx, cy, dx, dy in pb.segment_pairs(qb, 0):
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
    pi, ps, qs = pb.pts, p.snums, q.snums
    den = math.lcm(p.vden, q.vden)
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
    qidx = BoxLevels(qi)
    pidx = BoxLevels(pi)
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


_PROBE_START = 5  # the first clearance probe's precision


def certify_alpha(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    effort: int = 64,
    target: Fraction = Fraction(0),
) -> AlphaEnclosure:
    """Refine the clearance enclosure until its floor exceeds target,
    probing first at precision min(5, effort).

    Raises PreconditionViolated if some enclosure proves the clearance
    is at most target, EffortExhausted if precision `effort` is reached
    without a decision or the next probe would build a track of more
    than `paths.MAX_GRID_VERTICES` vertices.
    """
    probe = min(_PROBE_START, effort)
    enc = alpha_enclosure(f, g, i, j, probe)
    hint = min(smallest_n_below(enc.hi / 16), effort)
    if enc.lo <= target and hint > probe:
        probe = hint
        enc = alpha_enclosure(f, g, i, j, probe)
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
        enc = alpha_enclosure(f, g, i, j, probe)
    return enc


def working_precision(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, effort: int = 64
) -> tuple[AlphaEnclosure, int]:
    """The clearance enclosure of `certify_alpha`, tightened, and the
    working precision n = smallest_n_below(lo / 16) it certifies.

    A barely positive first floor can cost several bits of n, and each
    bit doubles the separated pair built at n.  So while the next probe
    precision stays below n and within effort, and the ceiling still
    allows a smaller n, one more probe keeps the larger floor and the
    smaller ceiling.  A probe below n builds two unseparated tracks of
    at most half the pair's vertices: it costs a fraction of the parity
    it can halve, and it meets no grid budget the parity would not.
    The returned enclosure carries the last probe's precision.
    """
    enc = certify_alpha(f, g, i, j, effort)
    lo, hi, probe = enc.lo, enc.hi, enc.precision_used
    n = smallest_n_below(lo / 16)
    while probe + 1 < n and probe < effort and n > smallest_n_below(hi / 16):
        probe += 1
        enc = alpha_enclosure(f, g, i, j, probe)
        lo, hi = max(lo, enc.lo), min(hi, enc.hi)
        n = smallest_n_below(lo / 16)
    return AlphaEnclosure(lo, hi, probe), n


def function_parity(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    effort: int = 64,
    n: int | None = None,
    rng: random.Random | None = None,
) -> int:
    """Crossing parity of f on i versus g on j.

    With n omitted, a working precision satisfying 16 * 2^-n < alpha is
    certified first (`working_precision`); passing n explicitly asserts
    that bound and skips certification.  If the approximation polygons
    are provably far apart the parity is 0 without any crossing
    enumeration.

    The pair is counted unchecked: on the grid of `common_verts`, checks
    A and B of `n_approximation_pair` keep every g-vertex off every
    f-line and every g-line off every f-vertex, which is weak separation
    (see its docstring).  The sweep's SeparationInvariantError guards it.
    """
    if n is None:
        _enc, n = working_precision(f, g, i, j, effort)
    p, q = n_approximation_pair(f, g, i, j, n, rng)
    pi, qi, den = common_verts(p, q)
    # one hierarchy per track serves the far test and the sweep
    pb, qb = BoxLevels(pi), BoxLevels(qi)
    if min_sqdist_exceeds(pb, qb, (11 * pow2(-n)) ** 2, den):
        return 0
    return _sweep(p, q, pb, qb).parity
