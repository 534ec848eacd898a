"""Crossing counts of polygon tracks and crossing parity of curves.

The crossing parity of f on i and g on j is the parity of the crossing
count of two polygon approximations, one per curve, taken at a working
precision n with 16 * 2^-n below the endpoint clearance alpha (the
distance from each window's endpoint values to the other curve's image).
`function_parity` certifies that clearance from below and picks n from
the tightened floor (`working_precision`).  Two routes then count.

The paper's route is public: `n_approximation_pair` (or
`perturb_to_separated`) builds weakly separated tracks, on which every
incidence is a transversal interior crossing, and `crossing_count`
checks a caller's pair (else NotSeparated) and reports every crossing.

`function_parity` builds no separated pair.  It counts the base-point
polylines of the two tracks (`paths._base_points`: no spiral, no
separation checks, zero-length segments dropped) with the second one
translated by the infinitesimal vector t = (eps, eps^2):

* The crossing parity of two polygon paths is their mod-2 intersection
  number, invariant under every perturbation that keeps each path's
  endpoints off the other path (Guillemin and Pollack, *Differential
  Topology*, ch. 2 section 4).  Under 16 * 2^-n < alpha the endpoints
  of every pair of n-approximations stay clear of the other polygon, and
  so along the straight-line blend of two such pairs: the base-point
  polylines (their vertices within 2^-n of the curve, as the separated
  tracks' are) have the parity of the paper's pairs.
* The translation is generic.  For a segment u -> v and a point c, the
  sign of cross(v - u, c + t - u) is that of the polynomial
  O - (v_y - u_y) eps + (v_x - u_x) eps^2 with O = cross(v - u, c - u),
  which for all small eps > 0 is the sign of its first nonzero
  coefficient (`translated_sign`).  A segment of nonzero length has a
  nonzero coefficient: no integer direction (a, b) other than 0 has
  a eps + b eps^2 = 0.  So no vertex of either polyline lies on a line
  of the other, and the translated pair is weakly separated.  Orienting
  a point a against the translated segment (c + t) -> (d + t) is
  orienting a - t against c -> d, the mirrored form
  `translated_sign(O, c - d)`.
* An infinitesimal translation moves no endpoint across the other path,
  whose clearance is positive, so the count under it has the parity of
  the untranslated polylines.

This is simulation of simplicity (Edelsbrunner and Muecke, ACM TOG 9(1),
1990; Yap, J. Symbolic Computation 10, 1990; Seidel, *The nature and
meaning of perturbations in geometric computing*, DCG 19, 1998): the
signs are decided exactly in integers and the sweep (`_sweep`) is the
one that `crossing_count` runs, where no O is 0.

No far test runs before the sweep.  The sweep's dual descent keeps only
box pairs that touch (reach 0); a test settling far-apart polylines as
parity 0 (`_fastgeom.min_sqdist_exceeds` at reach 11 * 2^-n) opens
every one of those pairs and more.  So where it would answer 0 the sweep
costs no more than it, and on every other window it is wasted work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ._fastgeom import BoxLevels, pair_over_lcm
from .errors import EffortExhausted, NotSeparated, PreconditionViolated
from .exact_geom import Interval, Point, pow2, smallest_n_below, sqrt_enclosure
from .paths import PathOracle, _base_points
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
    return _sweep(p, q)


def translated_sign(o: int, ex: int, ey: int) -> int:
    """A nonzero integer with the sign, for all small enough eps > 0, of
    o - ey * eps + ex * eps^2: the orientation cross(e, c + t - u) of a
    point c translated by t = (eps, eps^2) against a segment u -> u + e
    of nonzero length, given o = cross(e, c - u).  With e the reversed
    segment it orients a fixed point against a translated segment."""
    return o or -ey or ex


def _sweep(p: Track, q: Track) -> CrossingReport:
    """The crossings of p and of q translated by t = (eps, eps^2); no
    segment may have length 0.

    The hierarchies of both tracks over `common_verts` descend together
    and only segment pairs whose boxes touch are oriented, so the cost is
    the overlapping box pairs level by level, not |p| * |q|.  Each sign
    is `translated_sign` of the exact orientation O; the translated pair
    is weakly separated (see the module docstring), so a segment pair
    crosses iff each separates the other's endpoints.  On a weakly
    separated pair no O is 0 and t changes nothing.  A crossing is
    located at eps = 0: where O is 0 it sits at the vertex on the other
    segment's line.
    """
    pi, qi, den = common_verts(p, q)
    pairs = BoxLevels(pi).segment_pairs(BoxLevels(qi), 0)
    hits: list[tuple[int, int, int, int, int, int]] = []
    for i, j, ax, ay, bx, by, cx, cy, dx, dy in pairs:
        ex, ey = bx - ax, by - ay
        o1 = ex * (cy - ay) - ey * (cx - ax)
        o2 = ex * (dy - ay) - ey * (dx - ax)
        if (translated_sign(o1, ex, ey) > 0) == (translated_sign(o2, ex, ey) > 0):
            continue
        fx, fy = cx - dx, cy - dy
        o3 = fy * (ax - cx) - fx * (ay - cy)
        o4 = fy * (bx - cx) - fx * (by - cy)
        if (translated_sign(o3, fx, fy) > 0) == (translated_sign(o4, fx, fy) > 0):
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

    Measured between the base-point polylines (`paths._base_points`,
    repeats kept: a zero-length segment is measured as its point), then
    widened by the vertex error (2^-n) plus the polygon-vs-curve error
    (5 * 2^-n) per side.  Base points lie within 2^-(n+2) of the curve,
    so the pad that covers an n-approximation's vertices covers them.
    """
    pi, qi, den = pair_over_lcm(
        *_base_points(f, i, n, None)[2:], *_base_points(g, j, n, None)[2:]
    )
    sq_scale = Fraction(den * den)
    pidx, qidx = BoxLevels(pi), BoxLevels(qi)
    d_f_ends = min(
        qidx.sq_dist_to_point(*pi[0]), qidx.sq_dist_to_point(*pi[-1])
    ) / sq_scale
    d_g_ends = min(
        pidx.sq_dist_to_point(*qi[0]), pidx.sq_dist_to_point(*qi[-1])
    ) / sq_scale
    e1, e2 = sqrt_enclosure(d_f_ends, n), sqrt_enclosure(d_g_ends, n)
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
    without a decision or the next probe's grid (`paths.grid_values`)
    would hold more than `paths.MAX_GRID_VERTICES` points.
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
    bit doubles the two polylines the parity counts at n.  So while the
    next probe precision stays below n and within effort, and the
    ceiling still allows a smaller n, one more probe keeps the larger
    floor and the smaller ceiling.  A probe below n measures between
    base-point polylines of at most half the vertices of those the
    parity counts, and it meets no grid budget the parity would not.
    With the count this cheap, certification is close to half of a
    query: `working_precision` took 42 to 49 % of the time of
    perfbench's window queries (seeds 4101 to 4103, best of 3 per query,
    on a 2-CPU x86-64 machine under Python 3.11).
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


def _base_track(
    f: PathOracle, i: Interval, n: int, rng: random.Random | None
) -> Track:
    """The polyline through the base points of `n_approximation(f, i, n,
    rng)` (the same rng draws), each repeat of its predecessor dropped:
    a zero-length segment crosses nothing."""
    sden, snums, den, bases = _base_points(f, i, n, rng)
    keep = [k for k in range(1, len(bases)) if bases[k] != bases[k - 1]]
    if len(keep) < len(bases) - 1:
        snums = [snums[0], *(snums[k] for k in keep)]
        bases = [bases[0], *(bases[k] for k in keep)]
    return Track.from_ints(sden, snums, den, bases)


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
    that bound and skips certification.

    The parity is that of the crossing count of the base-point
    polylines of f and g, the second translated by t = (eps, eps^2)
    (`_sweep`).  Under the bound, that count has the parity of every
    weakly separated n-approximation pair, `n_approximation_pair`
    included: the mod-2 intersection number is invariant under
    perturbations that keep the endpoints off the other polyline, and t
    is generic (see the module docstring).  Polylines far apart need no
    separate test: the sweep opens a subset of the box pairs any
    distance test would open, and finds no crossing among them.
    """
    if n is None:
        _enc, n = working_precision(f, g, i, j, effort)
    return _sweep(_base_track(f, i, n, rng), _base_track(g, j, n, rng)).parity
