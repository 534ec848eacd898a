"""Curve oracles and their polygon approximations.

A path oracle answers two questions about a curve f: a rational point
within 2^-n of f(t), and a modulus m(n) such that parameters closer than
2^-m(n) map to values closer than 2^-n.  That is the entire interface;
everything downstream (tracks, crossing parity, refinement) consumes
curves only through it.

Unit-square curves are extended by straight tails to the domain [-1, 2]
so that the two extended curves cross an odd number of times; the lower
extension enters along y = 0 and leaves along y = 1, the upper one the
other way around.
"""

from __future__ import annotations

import enum
import math
import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Iterator

from ._fastgeom import IntPoint, over_lcm, points_over_lcm, rescale
from .errors import (
    EffortExhausted,
    EndpointViolation,
    OutOfDomain,
    PreconditionViolated,
)
from .exact_geom import (
    Interval,
    Point,
    ceil_log2,
    interval,
    pow2,
    pt,
    rat,
)
from .track import SPIRAL_LEVELS, Track, separated_vertices

_JITTER_SPAN = 32  # random vertex offsets stay within 32 pitches per axis
_MODULUS_CHECKS = 64  # TablePath.validate checks a modulus at n < 64
_CORNER_PRECISION = 20  # extend refutes corners from values at precision 20
_UNIT_DOMAIN = interval(0, 1)
_EXTENDED_DOMAIN = interval(-1, 2)


class PathOracle(ABC):
    """A curve known through approximations and a continuity modulus.

    The builtin oracles compute their curve in one place, `eval_grid(k0,
    k1, b, n)`: the values at every k/b for k0 <= k <= k1, as integer
    numerators over one denominator they state; their `eval_approx` is
    the one-point grid.  Track construction uses `eval_grid` where
    present; any other curve is evaluated point by point through
    `eval_approx` (see `grid_points`).
    """

    @property
    @abstractmethod
    def domain(self) -> Interval: ...

    @abstractmethod
    def eval_approx(self, t: Fraction, n: int) -> Point:
        """A rational point within 2^-n of the exact value at t."""

    @abstractmethod
    def modulus(self, n: int) -> int:
        """m with |t - t'| < 2^-m  =>  |f(t) - f(t')| < 2^-n."""


def _out_of_domain(t: Fraction, domain: Interval) -> OutOfDomain:
    return OutOfDomain(f"parameter {t} outside {domain}")


def _one_point(f: PathOracle, t: Fraction, n: int) -> Point:
    """The value at t of an oracle with `eval_grid`: its one-point grid."""
    den, [(x, y)] = f.eval_grid(t.numerator, t.numerator, t.denominator, n)
    return Point(Fraction(x, den), Fraction(y, den))


def _lipschitz_shift(l1_bound: Fraction) -> int:
    """Modulus offset from an L1 derivative bound (Euclidean <= L1)."""
    return ceil_log2(max(l1_bound, Fraction(1)))


class PolylinePath(PathOracle):
    """Piecewise-linear curve; evaluation is exact at every precision.

    Unlike a Track, consecutive sample points may coincide (the curve may
    pause), so this class cannot double as a crossing-count operand.
    """

    def __init__(self, entries: Iterable[tuple]):
        cooked: list[tuple[Fraction, Point]] = []
        for s, p in entries:
            point = p if isinstance(p, Point) else pt(p[0], p[1])
            cooked.append((rat(s), point))
        if len(cooked) < 2:
            raise ValueError("a polyline needs at least two samples")
        for (s0, _), (s1, _) in zip(cooked, cooked[1:]):
            if s1 <= s0:
                raise ValueError("polyline parameters must increase strictly")
        self._entries = tuple(cooked)
        self._domain = Interval(cooked[0][0], cooked[-1][0])
        # integer forms, built once: the parameters over their common
        # denominator for the lookup and the domain test, and segment k
        # as the value (alpha*b + beta*a) / (vden*b) per axis at t = a/b
        self._pscale, pnums = over_lcm([s for s, _ in cooked])
        self._pnums = pnums
        d, verts = points_over_lcm([z for _, z in cooked])
        spans = [p1 - p0 for p0, p1 in zip(pnums, pnums[1:])]
        span_lcm = math.lcm(*spans)
        self._vden = d * span_lcm
        segments = []
        slope = Fraction(0)
        for k, span in enumerate(spans):
            (x0, y0), (x1, y1) = verts[k], verts[k + 1]
            dx, dy, w = x1 - x0, y1 - y0, span_lcm // span
            segments.append(
                (
                    w * (x0 * span - dx * pnums[k]),
                    w * dx * self._pscale,
                    w * (y0 * span - dy * pnums[k]),
                    w * dy * self._pscale,
                )
            )
            slope = max(slope, Fraction((abs(dx) + abs(dy)) * self._pscale, d * span))
        self._segments = segments
        self._shift = _lipschitz_shift(slope)

    @property
    def entries(self) -> tuple[tuple[Fraction, Point], ...]:
        return self._entries

    @property
    def domain(self) -> Interval:
        return self._domain

    def eval_approx(self, t: Fraction, n: int) -> Point:
        return _one_point(self, t, n)

    def eval_grid(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list[IntPoint]]:
        scale, pnums, segments = self._pscale, self._pnums, self._segments
        for k in (k0, k1):
            if k * scale < pnums[0] * b or k * scale > pnums[-1] * b:
                raise _out_of_domain(Fraction(k, b), self._domain)
        out: list[IntPoint] = []
        # the sample parameters are integers, so p <= q/b iff p <= floor(q/b);
        # the last segment also serves the last sample parameter
        i = min(bisect_right(pnums, k0 * scale // b) - 1, len(segments) - 1)
        k = k0
        while k <= k1:
            ax, bx, ay, by = segments[i]
            ax, ay = ax * b, ay * b
            # the segment's formula holds on its closed parameter range
            stop = min(k1, pnums[i + 1] * b // scale)
            out += [(ax + bx * j, ay + by * j) for j in range(k, stop + 1)]
            k = max(k, stop + 1)
            i += 1
        return self._vden * b, out

    def modulus(self, n: int) -> int:
        return n + self._shift


class QuadBezierPath(PathOracle):
    """Quadratic Bezier on [0, 1], evaluated exactly in integers.

    The control points are kept over a common denominator D; at t = k/b
    the Bernstein weights (b-k)^2, 2k(b-k) and k^2 put the value over D*b^2.
    """

    def __init__(self, p0: Point, p1: Point, p2: Point):
        self.p0, self.p1, self.p2 = p0, p1, p2
        self._den, self._ints = over_lcm([p0.x, p1.x, p2.x, p0.y, p1.y, p2.y])
        d1, d2 = p1 - p0, p2 - p1
        bound = 2 * max(abs(d1.x) + abs(d1.y), abs(d2.x) + abs(d2.y))
        self._shift = _lipschitz_shift(Fraction(bound))

    @property
    def domain(self) -> Interval:
        return _UNIT_DOMAIN

    def eval_approx(self, t: Fraction, n: int) -> Point:
        return _one_point(self, t, n)

    def eval_grid(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list[IntPoint]]:
        if k0 < 0 or k1 > b:
            raise _out_of_domain(Fraction(k0 if k0 < 0 else k1, b), _UNIT_DOMAIN)
        # at t = k/b the numerator over den*b^2, x0*(b-k)^2 + 2k(b-k)*x1 +
        # k^2*x2 per axis, expands in powers of k to c0 + k*(c1 + k*c2)
        x0, x1, x2, y0, y1, y2 = self._ints
        count = k1 - k0 + 1
        xs = _quadratic_run(x0 * b * b, 2 * b * (x1 - x0), x0 - 2 * x1 + x2, k0, count)
        ys = _quadratic_run(y0 * b * b, 2 * b * (y1 - y0), y0 - 2 * y1 + y2, k0, count)
        return self._den * b * b, list(islice(zip(xs, ys), max(count, 0)))

    def modulus(self, n: int) -> int:
        return n + self._shift


def _quadratic_run(c0: int, c1: int, c2: int, k0: int, count: int) -> Iterator[int]:
    """c0 + k*(c1 + k*c2) for k = k0, k0 + 1, ..., at least count values,
    by exact forward differences: the second difference 2*c2 is constant,
    so each value costs two additions (Knuth, TAOCP vol. 2, 4.6.4)."""
    first = c1 + c2 * (2 * k0 + 1)  # the value at k0 + 1 minus that at k0
    firsts = accumulate(repeat(2 * c2, count - 1), initial=first)
    return accumulate(firsts, initial=c0 + k0 * (c1 + k0 * c2))


class TablePath(PolylinePath):
    """Sampled curve with a caller-asserted continuity modulus.

    The samples are interpolated linearly, but the modulus is whatever
    the caller claims (a plain shift n -> n + offset, or any callable).
    `validate` rejects claims that the sample table itself refutes; a
    modulus can never be fully verified from finitely many samples.
    """

    def __init__(
        self,
        entries: Iterable[tuple],
        modulus_offset: int | None = None,
        modulus_fn: Callable[[int], int] | None = None,
    ):
        super().__init__(entries)
        if (modulus_offset is None) == (modulus_fn is None):
            raise ValueError("give exactly one of modulus_offset, modulus_fn")
        if modulus_offset is not None and modulus_offset < 0:
            raise ValueError("modulus offset must be non-negative")
        self._offset = modulus_offset
        self._fn = modulus_fn

    def modulus(self, n: int) -> int:
        if self._offset is not None:
            return n + self._offset
        return self._fn(n)  # type: ignore[misc]

    def validate(self) -> None:
        """Cross-check the asserted modulus at the precisions n below
        _MODULUS_CHECKS against all sample pairs.

        Samples at ti < tj refute the modulus at n when tj - ti <
        2^-modulus(n) but |zj - zi| >= 2^-n.  The windows 2^-modulus(n)
        shrink as n grows, so the pair refutes the modulus iff it does so
        at the smallest n with |zj - zi| >= 2^-n; and a pair at least
        2^-modulus(0) apart in t refutes nothing.  So each pair closer
        than that costs one comparison, and the scan from each sample
        stops at the first sample beyond that window.  With the
        parameters as integers over S, tj - ti < 2^-m iff their
        difference is below ceil(S / 2^m), a right shift of S; so no
        window is built as a number of m bits, however large m is.
        """
        mods = [self.modulus(n) for n in range(_MODULUS_CHECKS + 1)]
        if any(m1 <= m0 for m0, m1 in zip(mods, mods[1:])):
            raise PreconditionViolated("modulus is not increasing")
        windows = [-(-self._pscale >> m) for m in mods]
        entries, pnums = self._entries, self._pnums
        for i, (ti, zi) in enumerate(entries):
            for j in range(i + 1, len(entries)):
                span = pnums[j] - pnums[i]
                if span >= windows[0]:
                    break
                tj, zj = entries[j]
                sq = (zj - zi).sq_norm()
                if sq == 0:
                    continue
                # smallest n >= 0 with 4^-n <= sq
                n = max(0, (ceil_log2(1 / sq) + 1) // 2)
                if n < _MODULUS_CHECKS and span < windows[n]:
                    raise PreconditionViolated(
                        f"samples at {ti} and {tj} refute the modulus at n={n}"
                    )


class Side(enum.Enum):
    """Which corner pattern the straight tails follow."""

    LOWER = "lower"  # enters at (0,0) along y=0, leaves from (1,1) along y=1
    UPPER = "upper"  # enters at (0,1) along y=1, leaves from (1,0) along y=0


_CORNERS = {
    Side.LOWER: (pt(0, 0), pt(1, 1)),
    Side.UPPER: (pt(0, 1), pt(1, 0)),
}
# heights of the left and right tails
_TAIL_Y = {
    Side.LOWER: (Fraction(0), Fraction(1)),
    Side.UPPER: (Fraction(1), Fraction(0)),
}


@dataclass(frozen=True)
class ExtendedPath(PathOracle):
    """A unit-square path continued by straight tails to [-1, 2]."""

    inner: PathOracle
    side: Side

    @property
    def domain(self) -> Interval:
        return _EXTENDED_DOMAIN

    def eval_approx(self, t: Fraction, n: int) -> Point:
        return _one_point(self, t, n)

    def eval_grid(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list[IntPoint]]:
        if k0 < -b or k1 > 2 * b:
            raise _out_of_domain(Fraction(k0 if k0 < -b else k1, b), _EXTENDED_DOMAIN)
        inner_den, inner = grid_points(self.inner, max(k0, 1), min(k1, b - 1), b, n)
        den = math.lcm(inner_den, b)
        step = den // b
        left, right = (y.numerator * den for y in _TAIL_Y[self.side])
        out = [(k * step, left) for k in range(k0, min(k1, 0) + 1)]
        out += rescale(inner, den // inner_den)
        out += [(k * step, right) for k in range(max(k0, b), k1 + 1)]
        return den, out

    def modulus(self, n: int) -> int:
        # one extra bit pays for parameter pairs straddling a junction:
        # split at the junction and add the two halves' deviations
        return max(self.inner.modulus(n + 1), n + 1)


def extend(path: PathOracle, side: Side) -> ExtendedPath:
    """Attach straight tails after checking the corner conditions.

    The corners can only be refuted, not confirmed, from approximations:
    the path is rejected iff its value at 0 or 1 is provably farther than
    the evaluation error allows from the required corner.
    """
    if path.domain != _UNIT_DOMAIN:
        raise ValueError("only unit-interval paths can be extended")
    tol_sq = (2 * pow2(-_CORNER_PRECISION)) ** 2
    for t, corner in zip((Fraction(0), Fraction(1)), _CORNERS[side]):
        z = path.eval_approx(t, _CORNER_PRECISION)
        if (z - corner).sq_norm() > tol_sq:
            raise EndpointViolation(
                f"path value at {t} is provably not the corner {corner}"
            )
    return ExtendedPath(path, side)


# Largest grid, in points, that one track or shrink step may evaluate.
# Grids grow about twofold per bit of precision, so without a cap a
# clearance that is zero (a window endpoint on the other curve) keeps
# doubling the probe precision towards `effort`, and a table claiming a
# large modulus asks for a grid of 2^40 points or more: either would
# stall or run out of memory instead of failing.
_MAX_GRID_BITS = 20
MAX_GRID_VERTICES = 2**_MAX_GRID_BITS


def _grid_bounds(lo: Fraction, hi: Fraction, md: int) -> tuple[int, int, int]:
    """(e, k0, k1): the grid of `dyadic_grid(lo, hi, md)` between its
    endpoints is k/2^e for k0 <= k <= k1.  Raises EffortExhausted for a
    grid of more than MAX_GRID_VERTICES points."""
    if lo >= hi:
        raise ValueError("empty parameter interval")
    e = md + 1
    # the grid has (hi - lo) * 2^e + 1 to + 3 points, and 2^b <= (hi -
    # lo) * 2^e: its size is bounded from exponents before any shift
    b = e - ceil_log2(1 / (hi - lo))
    if b < _MAX_GRID_BITS:
        k0 = (lo.numerator << e) // lo.denominator + 1
        k1 = -((-hi.numerator << e) // hi.denominator) - 1
        if k1 - k0 + 3 <= MAX_GRID_VERTICES:
            return e, k0, k1
    raise EffortExhausted(
        f"a track grid of over 2^{b} points on [{lo}, {hi}] exceeds"
        f" the budget of {MAX_GRID_VERTICES} vertices"
    )


def dyadic_grid(lo: Fraction, hi: Fraction, md: int) -> list[Fraction]:
    """Endpoints plus all multiples of 2^-(md+1) strictly between them.

    Every gap is positive and strictly below 2^-md.
    """
    e, k0, k1 = _grid_bounds(lo, hi, md)
    return [lo, *(Fraction(k, 1 << e) for k in range(k0, k1 + 1)), hi]


def grid_points(
    f: PathOracle, k0: int, k1: int, b: int, n: int
) -> tuple[int, list[IntPoint]]:
    """Values of f at precision n at k/b for k0 <= k <= k1, as integer
    numerators over one denominator.

    This is the one place where a curve without `eval_grid` (a user
    oracle that has only `eval_approx`, `modulus` and `domain`) is
    evaluated, point by point.
    """
    if k0 > k1:
        return 1, []
    eval_grid = getattr(f, "eval_grid", None)
    if eval_grid is not None:
        return eval_grid(k0, k1, b, n)
    values = [f.eval_approx(Fraction(k, b), n) for k in range(k0, k1 + 1)]
    return points_over_lcm(values)


def grid_values(
    f: PathOracle, lo: Fraction, hi: Fraction, md: int, n: int
) -> tuple[int, list[int], int, list[IntPoint]]:
    """f at precision n on `dyadic_grid(lo, hi, md)`, in integers:
    (sden, snums, vden, values) with grid point k at snums[k] / sden
    and its value at values[k] / vden."""
    e, k0, k1 = _grid_bounds(lo, hi, md)
    inner_den, inner = grid_points(f, k0, k1, 1 << e, n)
    ends_den, ends = points_over_lcm([f.eval_approx(lo, n), f.eval_approx(hi, n)])
    vden = math.lcm(inner_den, ends_den)
    z_lo, z_hi = rescale(ends, vden // ends_den)
    values = [z_lo, *rescale(inner, vden // inner_den), z_hi]
    sden = math.lcm(1 << e, lo.denominator, hi.denominator)
    step = sden >> e
    snums = [lo.numerator * (sden // lo.denominator)]
    snums += range(k0 * step, (k1 + 1) * step, step)
    snums.append(hi.numerator * (sden // hi.denominator))
    return sden, snums, vden, values


def _base_points(
    f: PathOracle, i: Interval, n: int, rng: random.Random | None
) -> tuple[int, list[int], int, list[IntPoint]]:
    """The grid of a precision-n track of f on i and its base points:
    evaluations at precision n+2, each moved by an optional random
    jitter of up to _JITTER_SPAN pitches 2^-(n+8) per axis.

    Without rng the vertex denominator is the oracle's own.  With rng it
    is also a multiple of 2^(n+8), so that the jitter is in integers.
    """
    if not f.domain.contains_interval(i):
        raise OutOfDomain(f"{i} is not inside {f.domain}")
    sden, snums, den, bases = grid_values(f, i.lo, i.hi, f.modulus(n), n + 2)
    if rng is not None:
        jitter_den = math.lcm(den, 1 << (n + 8))
        pitch, span, randint = jitter_den >> (n + 8), _JITTER_SPAN, rng.randint
        bases = [
            (x + randint(-span, span) * pitch, y + randint(-span, span) * pitch)
            for x, y in rescale(bases, jitter_den // den)
        ]
        den = jitter_den
    return sden, snums, den, bases


def _spiral_den(den: int, n: int) -> int:
    """The least common multiple of den and 2^(n+19): the vertex
    denominator on which the spiral pitch 2^-(n+8) and its 11 halvings
    are integers."""
    return math.lcm(den, 1 << (n + 7 + SPIRAL_LEVELS))


def n_approximation(
    f: PathOracle,
    i: Interval,
    n: int,
    rng: random.Random | None = None,
) -> Track:
    """A track following f on i: gaps below 2^-modulus(n), vertices
    within 2^-n of the curve, consecutive vertices distinct.

    Each vertex starts from its base point and, only where it equals its
    predecessor, walks the spiral of pitch 2^-(n+8) strictly within
    2^-(n+2) of its base, so the combined offset stays below 2^-n.
    """
    sden, snums, b_den, bases = _base_points(f, i, n, rng)
    den = _spiral_den(b_den, n)
    bases = rescale(bases, den // b_den)
    verts = separated_vertices(bases, (), den >> (n + 8), (den >> (n + 2)) ** 2)
    return Track.from_ints(sden, snums, den, verts)


def n_approximation_pair(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    rng: random.Random | None = None,
) -> tuple[Track, Track]:
    """Weakly separated approximation tracks for f on i and g on j.

    Two phases: the f-track p is built freely, then the g-vertices are
    placed by `separated_vertices` on one integer grid holding p and all
    of g's base points (a `_spiral_den` over both denominators), with
    the spiral of `n_approximation`; the rng is drawn as vertex by
    vertex, since the spiral draws nothing.  The pair is weakly
    separated by construction: check A keeps each g-vertex off every
    f-line meeting its budget square, which holds the vertex, and check
    B each g-line, a g-vertex joined to its predecessor, off every
    f-vertex.
    """
    p = n_approximation(f, i, n, rng)
    sden, snums, g_den, bases = _base_points(g, j, n, rng)
    den = _spiral_den(math.lcm(p.vden, g_den), n)
    verts = separated_vertices(
        rescale(bases, den // g_den),
        (p.verts_over(den),),
        den >> (n + 8),
        (den >> (n + 2)) ** 2,
    )
    return p, Track.from_ints(sden, snums, den, verts)


def diagonal_pair() -> tuple[PolylinePath, PolylinePath]:
    """The two straight unit-square diagonals; they cross at (1/2, 1/2)."""
    phi = PolylinePath([(0, (0, 0)), (1, (1, 1))])
    psi = PolylinePath([(0, (0, 1)), (1, (1, 0))])
    return phi, psi


def curved_pair() -> tuple[QuadBezierPath, QuadBezierPath]:
    """A bent corner-to-corner pair with a single transversal crossing."""
    phi = QuadBezierPath(pt(0, 0), pt("1/5", "4/5"), pt(1, 1))
    psi = QuadBezierPath(pt(0, 1), pt("1/2", "1/10"), pt(1, 0))
    return phi, psi
