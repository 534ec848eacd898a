"""Certified nested-interval refinement around a curve crossing.

Starting from the full extended domains, each round shrinks first the
parameter interval of one curve and then the other while keeping the
crossing parity equal to 1, so the surviving intervals always contain a
genuine intersection parameter pair.  The shrink step walks a grid fine
enough that curve values move by a sixteenth of the target radius,
decides for each grid value whether it lies within half the target
radius of the opposing image, and keeps one low-distance run whose
parity is odd.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ._fastgeom import BoxLevels, pair_over_lcm
from .errors import InvariantViolation, NotConverged, PreconditionViolated
from .exact_geom import (
    Interval,
    Point,
    RationalLike,
    interval,
    pow2,
    pt,
    rat,
    smallest_n_below,
    sqrt_enclosure,
)
from .parity import certify_alpha, function_parity
from .paths import PathOracle, Side, _base_points, extend, grid_values, n_approximation

_EXTENDED = interval(-1, 2)
_UNIT = interval(0, 1)
_MAX_SAMPLES = 4096  # verify_certificate's grid budget per sampled track


@dataclass(frozen=True)
class RefinementRecord:
    """One accepted interval pair: at level m the images are mutually
    within 2^-m and the crossing parity on i x j is 1."""

    m: int
    i: Interval
    j: Interval

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("negative refinement level")


@dataclass(frozen=True)
class Certificate:
    """A nested chain of refinement records plus the final parameter
    intervals clipped back to the original unit domains."""

    records: tuple[RefinementRecord, ...]
    s_phi: Interval
    s_psi: Interval

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a certificate needs at least the base record")
        for expected, rec in enumerate(self.records):
            if rec.m != expected:
                raise ValueError("refinement levels must count up from 0")
        for prev, rec in zip(self.records, self.records[1:]):
            if not (
                prev.i.contains_interval(rec.i)
                and prev.j.contains_interval(rec.j)
            ):
                raise ValueError("refinement records must be nested")
        if not (_UNIT.contains_interval(self.s_phi) and _UNIT.contains_interval(self.s_psi)):
            raise ValueError("final intervals must lie in the unit domain")

    @property
    def final(self) -> RefinementRecord:
        return self.records[-1]


def shrink_first(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    *,
    effort: int = 64,
    rng: random.Random | None = None,
    skip_precondition_checks: bool = False,
) -> Interval:
    """Subinterval of i keeping parity 1, with f's image pulled into the
    open 2^-n neighborhood of g's image over j.

    Requires 2^-n below the endpoint clearance and parity 1 on (i, j);
    both are certified here unless the caller vouches for them.  Grid
    values of f are classified low/high against 2^-n/2: a value is low
    iff its exact squared distance q to the polyline approximating g is
    below 4^-(n+1), which is the rule "sqrt_enclosure(q, n+9).lo <
    2^-n/2" decided without rounding.  Runs of low points bounded by
    their high neighbors split the parity additively, so some low run
    is odd.
    """
    eps = pow2(-n)
    if not skip_precondition_checks:
        certify_alpha(f, g, i, j, effort, target=eps)
        if function_parity(f, g, i, j, effort, rng=rng) != 1:
            raise PreconditionViolated(
                "crossing parity on the input intervals is 0"
            )
    # distance error budget: evaluation 2^-(n+9) plus polyline deviation
    # 5*2^-(n+9), under 2^-n/16.  Each grid value is decided against the
    # exact squared distance q to the polyline, by the thresholds of the
    # rounded rule lo = isqrt(floor(q*4^(n+10)))/2^(n+10) against
    # half = 2^-n/2 = 2^9/2^(n+10):
    #   lo <  half  iff  q < 4^-(n+1)           (low grid value)
    #   lo <= half  iff  q < 513^2 * 4^-(n+10)  (endpoint not clear)
    # so the classification equals the rounded one without forming lo.
    # distances need no separated track: g's base points, repeats kept
    g_den, gv = _base_points(g, j, n + 9, None)[2:]
    # consecutive grid values of f move by less than 2^-n/16
    sden, snums, f_den, fv = grid_values(f, i.lo, i.hi, f.modulus(n + 4), n + 9)
    fv, gv, den = pair_over_lcm(f_den, fv, g_den, gv)
    idx = BoxLevels(gv)
    sq_scale = den * den
    k = len(fv) - 1
    for x, y in (fv[0], fv[k]):
        if idx.any_within(x, y, 513 * 513 * sq_scale, 4 ** (n + 10)):
            raise PreconditionViolated(
                "an interval endpoint is not clear of the opposing image"
            )
    low_rd = 4 ** (n + 1)
    # the endpoints are clear, so at the smaller low radius they are high
    low = [False]
    low.extend(idx.any_within(x, y, sq_scale, low_rd) for x, y in fv[1:k])
    low.append(False)
    chosen = [0]
    chosen.extend(
        t for t in range(1, k) if not low[t] and (low[t - 1] or low[t + 1])
    )
    chosen.append(k)

    for a, b in zip(chosen, chosen[1:]):
        if b - a < 2 or not low[a + 1]:
            continue
        if not all(low[a + 1 : b]):
            raise InvariantViolation("mixed run between chosen grid indices")
        cand = Interval(Fraction(snums[a], sden), Fraction(snums[b], sden))
        # run endpoints measured >= 2^-n/2, so the true clearance of
        # (cand, j) is at least 7/16 * 2^-n and precision n+6 satisfies
        # the parity stability margin 2^-(n+6) < (7/16)*2^-n / 16
        if function_parity(f, g, cand, j, effort, n=n + 6, rng=rng) == 1:
            return cand
    raise InvariantViolation("no low-distance run carries an odd crossing count")


def _shrink_pair_certified(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    m: int,
    alpha_lo: Fraction,
    effort: int,
    rng: random.Random | None,
) -> tuple[Interval, Interval, Fraction]:
    """Shrink both sides once the caller certifies parity 1 and a
    clearance strictly above some power 2^-n with 2^-n < alpha_lo.

    Returns the new pair plus a constructive clearance lower bound for
    it, saving the next round a measurement from scratch.
    """
    n = max(m + 1, smallest_n_below(alpha_lo))
    i2 = shrink_first(
        f, g, i, j, n, effort=effort, rng=rng, skip_precondition_checks=True
    )
    # the kept run's endpoints sit at distance >= 7/16 * 2^-n from g's
    # image, and g's endpoint values only moved farther from the smaller
    # f image, so the clearance of (i2, j) is at least 7/16 * 2^-n
    n2 = max(m + 1, smallest_n_below(Fraction(7, 16) * pow2(-n)))
    j2 = shrink_first(
        g, f, j, i2, n2, effort=effort, rng=rng, skip_precondition_checks=True
    )
    return i2, j2, Fraction(7, 16) * pow2(-n2)


def shrink_pair(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    m: int,
    *,
    effort: int = 64,
    rng: random.Random | None = None,
) -> tuple[Interval, Interval]:
    """One refinement round: nested subintervals with parity 1 whose
    images lie in each other's 2^-m neighborhoods."""
    alpha_lo = certify_alpha(f, g, i, j, effort).lo
    if function_parity(f, g, i, j, effort, rng=rng) != 1:
        raise PreconditionViolated(
            "crossing parity on the input intervals is 0"
        )
    i2, j2, _ = _shrink_pair_certified(f, g, i, j, m, alpha_lo, effort, rng)
    return i2, j2


def refine_sequence(
    phi: PathOracle,
    psi: PathOracle,
    iterations: int,
    *,
    effort: int = 64,
    verify_base_parity: bool = False,
    rng: random.Random | None = None,
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
    i = j = _EXTENDED
    if verify_base_parity and function_parity(f, g, i, j, effort, n=5, rng=rng) != 1:
        raise InvariantViolation("base crossing parity is not 1")
    records = [RefinementRecord(0, i, j)]
    alpha_lo = Fraction(1)
    for m in range(1, iterations + 1):
        i, j, alpha_lo = _shrink_pair_certified(
            f, g, i, j, m, alpha_lo, effort, rng
        )
        records.append(RefinementRecord(m, i, j))
    try:
        s_phi = i.clip(_UNIT)
        s_psi = j.clip(_UNIT)
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
    max_samples: int,
) -> None:
    # sampling precision adapts downward until both grids fit the budget
    n_v = level + 5
    floor_n = max(1, level + 1)
    while n_v > floor_n and (
        ia.width() * pow2(a.modulus(n_v) + 1) > max_samples
        or jb.width() * pow2(b.modulus(n_v) + 1) > max_samples
    ):
        n_v -= 1
    # the base points of both tracks; a zero-length segment of a repeat
    # is a point, which the distance queries measure correctly
    ap, bp, den = pair_over_lcm(
        *_base_points(a, ia, n_v, None)[2:], *_base_points(b, jb, n_v, None)[2:]
    )
    idx = BoxLevels(bp)
    allowed = pow2(-level) + 6 * pow2(-n_v)
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
    J_m within 2^-m of the first over I_m.  Sampled distances may exceed
    the radius by the discretization allowance 6 * 2^-n_v only.
    """
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    for prev, rec in zip(cert.records, cert.records[1:]):
        _check_neighborhood(f, rec.i, g, prev.j, rec.m - 1, _MAX_SAMPLES)
        _check_neighborhood(g, rec.j, f, rec.i, rec.m, _MAX_SAMPLES)


@dataclass(frozen=True)
class PointApproximation:
    """A rational ball certified to contain the crossing point."""

    center: Point
    radius: Fraction
    level: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("negative radius")


def extract_point(
    cert: Certificate, phi: PathOracle, eps: RationalLike
) -> PointApproximation:
    """Ball of radius at most eps around the crossing point, valid when
    the intersection is unique.

    Each record's first-curve image is covered by the bounding box of an
    approximation track inflated by the polyline deviation; the first
    record whose covering ball is small enough wins.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("the target radius must be positive")
    base = cert.records[0].i
    f = phi if phi.domain.contains_interval(base) else extend(phi, Side.LOWER)
    for rec in cert.records:
        n_ap = rec.m + 6
        track = n_approximation(f, rec.i, n_ap)
        xs = [x for x, _ in track.verts]
        ys = [y for _, y in track.verts]
        x0, x1, y0, y1, d = min(xs), max(xs), min(ys), max(ys), 2 * track.vden
        cx, cy = Fraction(x0 + x1, d), Fraction(y0 + y1, d)
        half_sq = Fraction((x1 - x0) ** 2 + (y1 - y0) ** 2, d * d)
        radius = sqrt_enclosure(half_sq, n_ap).hi + 5 * pow2(-n_ap)
        if radius <= eps:
            return PointApproximation(pt(cx, cy), radius, rec.m)
    raise NotConverged(
        f"no recorded interval encloses the crossing within {eps}"
    )
