"""Crossing counts of polygon tracks and crossing parity of curves.

The crossing parity of f on i and g on j is the parity of the crossing
count of two polygon approximations, one per curve, taken at a working
precision n with 16 * 2^-n below the endpoint clearance alpha (the
distance from each window's endpoint values to the other curve's image).
`function_parity` certifies that clearance from below and picks n from
the tightened floor (`working_precision`).  Two routes then count.

The paper's route is public and lives in `track`, which no pipeline
module imports: `track.n_approximation_pair` (or
`track.perturb_to_separated`) builds weakly separated tracks, on which
every incidence is a transversal interior crossing, and
`track.crossing_count` checks a caller's pair (else NotSeparated) and
reports every crossing with `_sweep`.

`function_parity` builds no separated pair and draws no random jitter.
It counts the base-point polylines of the two tracks (no spiral, no
separation checks, repeated vertices kept, only the two ends of each
straight run kept, `paths._turn_points`) with the second one translated
by the infinitesimal vector t = (eps, eps^2):

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
  a eps + b eps^2 = 0.  So no vertex of either polyline lies on the
  line of a segment of nonzero length of the other, and the translated
  pair, without its zero-length segments, is weakly separated.
  Orienting a point a against the translated segment (c + t) -> (d + t)
  is orienting a - t against c -> d, the mirrored form
  `translated_sign(O, c - d)`.
* Repeated vertices change no count.  A segment of length 0 has all
  three coefficients 0 against every point, and both its ends orient
  alike against every segment, so the sweep never finds it separating
  or separated.  The other segments are those of the polyline with the
  repeats dropped, in the same order, each at its own end parameters,
  so the sweep reports that polyline's crossings, each at its parameter
  on the polyline with the repeats.
* An infinitesimal translation moves no endpoint across the other path,
  whose clearance is positive, so the count under it has the parity of
  the untranslated polylines.
* Leaving out the grid points inside a straight run changes no count.
  The kept polyline is the full one parameter by parameter (a run's
  values are affine in its parameter), so P and Q + t meet in the same
  points at the same parameter pairs.  Its segments lie on lines of the
  full polyline and its vertices are some of the full vertices, so the
  translated pair stays weakly separated and each meeting is still one
  transversal crossing of one segment pair.

This is simulation of simplicity (Edelsbrunner and Muecke, ACM TOG 9(1),
1990; Yap, J. Symbolic Computation 10, 1990; Seidel, *The nature and
meaning of perturbations in geometric computing*, DCG 19, 1998): the
signs are decided exactly in integers and the sweep (`_sweep`) is the
one that `crossing_count` runs, where no O is 0.

A query without n evaluates and sweeps at n only where the
curves come near each other (`_near_sweep`).  The last clearance probe,
at some precision p, has already evaluated and indexed both windows; one
dual descent over its two hierarchies pairs the leaves at most 2.5 *
(2^-n + 2^-p) apart, and every crossing at n lies on segments within the
hulls of the paired leaves.  Both whole windows' grids at n are checked
against the budget first.  A far window pairs no leaves and evaluates
nothing at n; otherwise each curve is swept on its hull only, widened
outward to its grid at n and clipped to its window (`paths._leaf_hull`,
the rule the shrink step's run checks use too), with the same crossings
at the same parameters.  No separate far test
(`_fastgeom.min_sqdist_exceeds`) runs: that descent is one.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from typing import NamedTuple

from ._fastgeom import BoxLevels, pair_over_lcm
from .errors import EffortExhausted, PreconditionViolated
from .exact_geom import Frozen, Interval, Point, pow2, smallest_n_below, sqrt_enclosure
from .paths import IntPolyline, PathOracle, _checked_bounds, _leaf_hull, _turn_points

Crossing = tuple[Fraction, Fraction, Point]


class CrossingReport(Frozen):
    """Proper crossings of two tracks, ordered along the first track
    (lexicographically by segment pair)."""

    __slots__ = ("crossings", "count", "parity")

    def __init__(self, crossings: tuple[Crossing, ...], count: int, parity: int):
        if count != len(crossings) or parity != count % 2:
            raise ValueError("inconsistent crossing report")
        self._store(crossings, count, parity)


def _report(crossings: list[Crossing]) -> CrossingReport:
    return CrossingReport(tuple(crossings), len(crossings), len(crossings) % 2)


def __getattr__(name: str):
    """`track.crossing_count`, for callers that look it up here
    (perfbench's tracer rebinds it by name)."""
    if name == "crossing_count":
        return importlib.import_module(".track", __package__).crossing_count
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def translated_sign(o: int, ex: int, ey: int) -> int:
    """An integer with the sign, for all small enough eps > 0, of
    o - ey * eps + ex * eps^2: the orientation cross(e, c + t - u) of a
    point c translated by t = (eps, eps^2) against a segment u -> u + e,
    given o = cross(e, c - u).  It is nonzero if e is, and 0 on a segment
    of length 0 (e = 0, and so o = 0).  With e the reversed segment it
    orients a fixed point against a translated segment."""
    return o or -ey or ex


def _sweep(p: IntPolyline, q: IntPolyline) -> CrossingReport:
    """The crossings of p and of q translated by t = (eps, eps^2).  Each
    of p and q is a `paths.IntPolyline` or a `track.Track`: the sweep
    reads only their four integer fields.  A segment of length 0 is
    never counted, so the crossings are those of the polylines with
    their repeated vertices dropped (see the module docstring).

    The hierarchies of both tracks over one denominator descend together
    and only segment pairs whose boxes touch are oriented, so the cost is
    the overlapping box pairs level by level, not |p| * |q|.  Each sign
    is `translated_sign` of the exact orientation O; the translated pair
    is weakly separated (see the module docstring), so a segment pair
    crosses iff each separates the other's endpoints.  On a weakly
    separated pair no O is 0 and t changes nothing.  A crossing is
    located at eps = 0: where O is 0 it sits at the vertex on the other
    segment's line.
    """
    pi, qi, den = pair_over_lcm(p.vden, p.verts, q.vden, q.verts)
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


class _Probe(NamedTuple):
    """What a clearance probe at precision p measured: the turn-point
    polylines of f and of g, and their hierarchies over one denominator
    den."""

    p: int
    den: int
    f: IntPolyline
    f_idx: BoxLevels
    g: IntPolyline
    g_idx: BoxLevels


class AlphaEnclosure(Frozen):
    """Interval around the endpoint clearance of a curve pair: the
    smaller of (distance of f's endpoint values to g's arc) and
    (distance of g's endpoint values to f's arc).

    An enclosure from `alpha_enclosure` also keeps the probe it measured,
    which `_near_sweep` reuses; equality, hash and repr ignore it."""

    __slots__ = ("lo", "hi", "precision_used", "_probe")

    def __init__(self, lo: Fraction, hi: Fraction, precision_used: int, _probe=None):
        if not (0 <= lo <= hi):
            raise ValueError("enclosure bounds out of order")
        self._store(lo, hi, precision_used, _probe)


def alpha_enclosure(
    f: PathOracle, g: PathOracle, i: Interval, j: Interval, n: int
) -> AlphaEnclosure:
    """Two-sided bound on the endpoint clearance at working precision n.

    Measured between the base-point polylines with only the ends of
    each straight run kept (`paths._turn_points`, repeats kept: a
    zero-length segment is measured as its point), then widened by the
    vertex error (2^-n) plus the polygon-vs-curve error (5 * 2^-n) per
    side.  The kept polyline is the full one, so each distance is the
    full form's.  Base points lie within 2^-(n+2) of the curve, so the
    pad that covers an n-approximation's vertices covers them.

    The four endpoint distances share one bound: each query is passed
    the least distance so far and prunes every box at least that far
    away.  Each answer is the smaller of its exact distance and the
    bound, so the last is the least of the four exact distances, the
    same `Fraction` as their `min`.
    """
    fp, gp = _turn_points(f, i, n), _turn_points(g, j, n)
    pi, qi, den = pair_over_lcm(fp.vden, fp.verts, gp.vden, gp.verts)
    pidx, qidx = BoxLevels(pi), BoxLevels(qi)
    sq = None
    for idx, (x, y) in ((qidx, pi[0]), (qidx, pi[-1]), (pidx, qi[0]), (pidx, qi[-1])):
        sq = idx.sq_dist_to_point(x, y, sq)
    # both bounds of sqrt_enclosure rise with the radicand, so the
    # smallest distance's enclosure holds the smaller of each bound
    e = sqrt_enclosure(sq / (den * den), n)
    pad = 6 * pow2(-n)
    lo, hi = e.lo - pad, e.hi + pad
    probe = _Probe(n, den, fp, pidx, gp, qidx)
    return AlphaEnclosure(max(Fraction(0), lo), hi, n, probe)


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
    probing at precision min(5, effort) and then one bit higher each
    time.  On the builtin oracles each bit doubles a probe's grid, so the
    probes together cost about twice the last one at most, and no probe
    overshoots the first precision that certifies.  Jumping ahead to the
    precision the first ceiling allows would save little: that ceiling
    includes the pad 6·2^-5 = 3/16, so smallest_n_below(hi / 16) is at
    most 7 and the jump could skip only precision 6.

    Raises PreconditionViolated if some enclosure proves the clearance
    is at most target, EffortExhausted if precision `effort` is reached
    without a decision or a probe's grid (`paths._turn_points`) would
    hold more than `paths.MAX_GRID_VERTICES` points.
    """
    probe = min(_PROBE_START, effort)
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
        probe += 1
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
    floor and the smaller ceiling.  These probes go on one bit at a time
    from `certify_alpha`'s last, so a query probes consecutive
    precisions from min(5, effort), each once.  A probe below n
    measures between base-point polylines of at most half the vertices
    of those the parity counts, and it meets no grid budget the parity
    would not.
    With the count this cheap, certification is most of a query:
    `working_precision` took 59 to 61 % of the time of perfbench's
    window queries with a probe's four distances sharing one bound (63
    to 65 % before; seeds 4101 to 4103, best of 7 per query, summed,
    two runs on a 2-CPU x86-64 machine under Python 3.11), against 50
    to 53 % with both whole windows swept.
    The returned enclosure carries the last probe, its precision
    included, for `_near_sweep`.
    """
    enc = certify_alpha(f, g, i, j, effort)
    lo, hi, probe = enc.lo, enc.hi, enc.precision_used
    n = smallest_n_below(lo / 16)
    while probe + 1 < n and probe < effort and n > smallest_n_below(hi / 16):
        probe += 1
        enc = alpha_enclosure(f, g, i, j, probe)
        lo, hi = max(lo, enc.lo), min(hi, enc.hi)
        n = smallest_n_below(lo / 16)
    return AlphaEnclosure(lo, hi, probe, enc._probe), n


def _base_track(f: PathOracle, i: Interval, n: int) -> IntPolyline:
    """The polyline through the base points of
    `track.n_approximation(f, i, n)`, as its turn points
    (`paths._turn_points`: only the two ends of each straight run kept,
    repeats kept).  It is the polyline through all base points, so the
    sweep counts the same crossings (see the module docstring)."""
    return _turn_points(f, i, n)


def _near_sweep(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    enc: AlphaEnclosure,
) -> CrossingReport:
    """The crossings of the base-point polylines of f on i and g on j at
    precision n (`_sweep` of two `_base_track`s), found
    where the probe that enc keeps, at precision p, sees the curves meet.
    Both curves' grids at n on their whole windows are checked against
    the budget before anything is evaluated at n, f's first, so this
    fails exactly where the whole sweep fails.

    Let x be a point of a segment of f's polyline at n, between grid
    points s < s' (less than 2^-modulus(n) apart).  Its ends lie within
    2^-(n+2) of f(s) and of f(s'), which are less than 2^-n apart, so x
    is within 1.25 * 2^-n of f(s).  The probe's grid has a point t <= s
    whose next point lies above s, so f(s) is within 2^-p of f(t), and
    the probe's value at t within 2^-(p+2) of f(t): x is within R =
    1.25 * (2^-n + 2^-p) of the value at t.  That value lies on the
    probe's turn-point segment a, from tau_a <= t to tau_a+1 > s (the
    kept polyline is the full one, parameter by parameter), and so in
    the box of the leaf holding segment a.  The same holds for g.  A
    crossing the sweep counts is, at eps = 0, a point x on one segment
    of each polyline, so these two leaves, one per probe hierarchy, are
    at most 2R apart, and `near_leaves` at the integer reach ceil(2R *
    den) pairs them.  With no pair there is no crossing.

    Each curve is swept on the hull of its paired leaves
    (`paths._leaf_hull`): from the first point of the lowest to the
    last point of the highest, widened outward to its grid at n and
    clipped to its window.  The hull holds s, as tau_a <= s < tau_a+1,
    and so s': s' is the first grid point after s, and the widened end
    is a grid point at or above tau_a+1, or the window's end.  So every
    segment carrying a crossing lies in the hulls.  The polyline on a
    hull, whose ends are grid points, is the full one's part there,
    parameter by parameter (as for turn points, see the module
    docstring), so the two hull polylines, the second translated by t,
    meet in exactly the points, parameter pairs and order that the full
    ones do: the report is the whole sweep's.  Leaves that hold both
    ends of a window give the window itself.
    """
    probe = enc._probe
    p = probe.p
    _checked_bounds(f, i, f.modulus(n))
    _checked_bounds(g, j, g.modulus(n))
    # 2R * den = 5 * den * (2^n + 2^p) / 2^(n+p+1), rounded up
    reach = -(-5 * probe.den * ((1 << n) + (1 << p)) >> (n + p + 1))
    near = probe.f_idx.near_leaves(probe.g_idx, reach * reach)
    if not near:
        return _report([])
    f_spans = probe.f_idx.spans(k for k, _ in near)
    g_spans = probe.g_idx.spans(l for _, l in near)
    f_hull = _leaf_hull(f, i, n, probe.f.sden, probe.f.snums, f_spans)
    g_hull = _leaf_hull(g, j, n, probe.g.sden, probe.g.snums, g_spans)
    return _sweep(_base_track(f, f_hull, n), _base_track(g, g_hull, n))


def function_parity(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    effort: int = 64,
    n: int | None = None,
) -> int:
    """Crossing parity of f on i versus g on j.

    With n omitted, a working precision satisfying 16 * 2^-n < alpha is
    certified first (`working_precision`); passing n explicitly asserts
    that bound and skips certification.

    The parity is that of the crossing count of the base-point
    polylines of f and g, the second translated by t = (eps, eps^2)
    (`_sweep`).  Under the bound, that count has the parity of every
    weakly separated n-approximation pair, `track.n_approximation_pair`
    included: the mod-2 intersection number is invariant under
    perturbations that keep the endpoints off the other polyline, and t
    is generic (see the module docstring).  With n omitted, only the
    parts of the windows near the last clearance probe's meeting leaves
    are evaluated and swept (`_near_sweep`); with n given, both whole
    windows are.  A random jitter of the base points
    (`track.n_approximation_pair`'s rng) belongs to the paper's route.
    """
    if n is None:
        enc, n = working_precision(f, g, i, j, effort)
        return _near_sweep(f, g, i, j, n, enc).parity
    return _sweep(_base_track(f, i, n), _base_track(g, j, n)).parity
