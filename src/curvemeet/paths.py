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
import importlib
import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._fastgeom import IntPoint, over_lcm, points_over_lcm, rescale
from .errors import (
    EffortExhausted,
    EndpointViolation,
    OutOfDomain,
    PreconditionViolated,
)
from .exact_geom import (
    Frozen,
    Interval,
    Point,
    ceil_log2,
    ceil_log2_ratio,
    interval,
    pow2,
    pt,
    rat,
)

_MODULUS_CHECKS = 64  # TablePath.validate checks a modulus at n < 64
_CORNER_PRECISION = 20  # extend refutes corners from values at precision 20
_UNIT_DOMAIN = interval(0, 1)
_EXTENDED_DOMAIN = interval(-1, 2)


class PathOracle(ABC):
    """A curve known through approximations and a continuity modulus.

    An oracle needs only `domain`, `eval_approx` and `modulus`.  It may
    also give a whole grid at once, `eval_runs(k0, k1, b, n)` for k0 <=
    k1: the values at precision n at every k/b for k0 <= k <= k1, as a
    denominator that b divides and, in grid order, pieces over it:
    straight runs (k_a, k_b, ax, bx, ay, by), whose value at k/b for
    k_a <= k <= k_b is (ax + bx*k, ay + by*k) (none if k_a > k_b), and
    lists holding the values of any other stretch.

    The builtin oracles compute their curve in `eval_runs` alone: the
    piecewise-linear ones as one run per segment, the Bezier as one
    list.  Their `eval_approx` is the one-point grid (`_one_point`).
    `grid_runs` is the one dispatcher: it reads `eval_runs` where
    present and evaluates any other curve point by point through
    `eval_approx`; `grid_points` expands its pieces.  Distance queries
    and the parity sweep get only the ends of each run (`_turn_points`),
    and the shrink step decides each run whole where both curves come as
    runs (`refine._shrink_decisions`).
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
    """The value at t of an oracle with `eval_runs`: its one-point grid."""
    den, [(x, y)] = grid_points(f, t.numerator, t.numerator, t.denominator, n)
    return Point(Fraction(x, den), Fraction(y, den))


# Largest integer form of a path, in bits: for a polyline those of its
# vertex denominator and its parameter scale together, for a Bezier its
# control points' common denominator.  Every value of its grids is
# computed from integers this large.  Against the anti-diagonal, a
# polyline with parameters over distinct primes refined 16 rounds in
# 1.8 s at 4025 bits (115 rows; the 300-row `scripts/table_spec.json`,
# 26 bits, takes 0.6 s), while 1 202 rows, 61 455 bits, took 22 s for 2.
# A Bezier pair refined 16 rounds in 21 s at 3 978 bits (5 s at 1 320),
# while 26 567 bits took 64 s for 2.
MAX_FORM_BITS = 4096


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
        # the forms' integers have the bits of the parameter scale and of
        # vden = d * lcm(spans); the budget is checked as the lcm grows
        budget = MAX_FORM_BITS - d.bit_length() - self._pscale.bit_length()
        for span_lcm in accumulate(spans, math.lcm):
            if span_lcm.bit_length() > budget:
                raise ValueError(f"the samples' integers exceed {MAX_FORM_BITS} bits")
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

    eval_approx = _one_point

    def eval_runs(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list]:
        """The grid as one straight run per segment it meets."""
        scale, pnums, segments = self._pscale, self._pnums, self._segments
        for k in (k0, k1):
            if k * scale < pnums[0] * b or k * scale > pnums[-1] * b:
                raise _out_of_domain(Fraction(k, b), self._domain)
        runs = []
        # the sample parameters are integers, so p <= q/b iff p <= floor(q/b);
        # the last segment also serves the last sample parameter
        i = min(bisect_right(pnums, k0 * scale // b) - 1, len(segments) - 1)
        k = k0
        while k <= k1:
            ax, bx, ay, by = segments[i]
            # the segment's formula holds on its closed parameter range
            stop = min(k1, pnums[i + 1] * b // scale)
            runs.append((k, stop, ax * b, bx, ay * b, by))
            k = max(k, stop + 1)
            i += 1
        return self._vden * b, runs

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
        if self._den.bit_length() > MAX_FORM_BITS:
            raise ValueError(
                f"the control points' integers exceed {MAX_FORM_BITS} bits"
            )
        d1, d2 = p1 - p0, p2 - p1
        bound = 2 * max(abs(d1.x) + abs(d1.y), abs(d2.x) + abs(d2.y))
        self._shift = _lipschitz_shift(Fraction(bound))

    @property
    def domain(self) -> Interval:
        return _UNIT_DOMAIN

    eval_approx = _one_point

    def eval_runs(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list]:
        """The grid as one list piece."""
        if k0 < 0 or k1 > b:
            raise _out_of_domain(Fraction(k0 if k0 < 0 else k1, b), _UNIT_DOMAIN)
        # at t = k/b the numerator over den*b^2, x0*(b-k)^2 + 2k(b-k)*x1 +
        # k^2*x2 per axis, expands in powers of k to c0 + k*(c1 + k*c2)
        x0, x1, x2, y0, y1, y2 = self._ints
        count = k1 - k0 + 1
        xs = _quadratic_run(x0 * b * b, 2 * b * (x1 - x0), x0 - 2 * x1 + x2, k0, count)
        ys = _quadratic_run(y0 * b * b, 2 * b * (y1 - y0), y0 - 2 * y1 + y2, k0, count)
        return self._den * b * b, [list(islice(zip(xs, ys), count))]

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
        # the samples as integers over d: |zj - zi|^2 is sq / d^2
        d, verts = points_over_lcm([z for _, z in self._entries])
        dd, pnums = d * d, self._pnums
        for i, (xi, yi) in enumerate(verts):
            for j in range(i + 1, len(verts)):
                span = pnums[j] - pnums[i]
                if span >= windows[0]:
                    break
                xj, yj = verts[j]
                sq = (xj - xi) ** 2 + (yj - yi) ** 2
                if sq == 0:
                    continue
                # smallest n >= 0 with 4^-n <= sq / d^2
                n = max(0, (ceil_log2_ratio(dd, sq) + 1) // 2)
                if n < _MODULUS_CHECKS and span < windows[n]:
                    ti, tj = self._entries[i][0], self._entries[j][0]
                    raise PreconditionViolated(
                        f"samples at {ti} and {tj} refute the modulus at n={n}"
                    )


class Side(enum.Enum):
    """Which corner pattern the straight tails follow."""

    LOWER = "lower"  # enters at (0,0) along y=0, leaves from (1,1) along y=1
    UPPER = "upper"  # enters at (0,1) along y=1, leaves from (1,0) along y=0


# the left and right tails run at the heights of these corners
_CORNERS = {
    Side.LOWER: (pt(0, 0), pt(1, 1)),
    Side.UPPER: (pt(0, 1), pt(1, 0)),
}


class ExtendedPath(PathOracle, Frozen):
    """A unit-square path continued by straight tails to [-1, 2]."""

    __slots__ = ("inner", "side")

    def __init__(self, inner: PathOracle, side: Side):
        self._store(inner, side)

    @property
    def domain(self) -> Interval:
        return _EXTENDED_DOMAIN

    eval_approx = _one_point

    def eval_runs(self, k0: int, k1: int, b: int, n: int) -> tuple[int, list]:
        """The grid as a straight run per tail and the inner curve's
        pieces between them (`grid_runs`)."""
        if k0 < -b or k1 > 2 * b:
            raise _out_of_domain(Fraction(k0 if k0 < -b else k1, b), _EXTENDED_DOMAIN)
        den, inner = grid_runs(self.inner, max(k0, 1), min(k1, b - 1), b, n)
        step = den // b
        # on a tail of height y the value at k/b is (k * step, y * den)
        left, right = (z.y.numerator * den for z in _CORNERS[self.side])
        tails = (k0, min(k1, 0), 0, step, left, 0), (max(k0, b), k1, 0, step, right, 0)
        return den, [tails[0], *inner, tails[1]]

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
# raising the probe precision, one bit at a time, towards `effort`, and
# a table claiming a large modulus asks for a grid of 2^40 points or
# more: either would stall or run out of memory instead of failing.
_MAX_GRID_BITS = 20
MAX_GRID_VERTICES = 2**_MAX_GRID_BITS


class IntPolyline(NamedTuple):
    """A polyline in integers, the form of every grid reader here and
    the fields of `track.Track`: parameter k is snums[k] / sden and
    vertex k is verts[k] / vden.  Consecutive vertices may repeat."""

    sden: int
    snums: Sequence[int]
    vden: int
    verts: Sequence[IntPoint]


def _grid_bounds(lo: Fraction, hi: Fraction, md: int) -> tuple[int, int, int]:
    """(e, k0, k1): the grid of `dyadic_grid(lo, hi, md)` between its
    endpoints is k/2^e for k0 <= k <= k1.  Raises EffortExhausted for a
    grid of more than MAX_GRID_VERTICES points."""
    # hi - lo = width / wden, in the four integers of lo and hi
    wden = lo.denominator * hi.denominator
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    if width <= 0:
        raise ValueError("empty parameter interval")
    e = md + 1
    # the grid has (hi - lo) * 2^e + 1 to + 3 points, and 2^b <= (hi -
    # lo) * 2^e: its size is bounded from exponents before any shift
    b = e - ceil_log2_ratio(wden, width)
    if b < _MAX_GRID_BITS:
        k0 = (lo.numerator << e) // lo.denominator + 1
        k1 = -((-hi.numerator << e) // hi.denominator) - 1
        if k1 - k0 + 3 <= MAX_GRID_VERTICES:
            return e, k0, k1
    raise EffortExhausted(
        f"a track grid of over 2^{b} points on [{lo}, {hi}] exceeds"
        f" the budget of {MAX_GRID_VERTICES} vertices"
    )


def _checked_bounds(f: PathOracle, i: Interval, md: int) -> tuple[int, int, int]:
    """`_grid_bounds` of f's grid on i, after checking that i lies in
    f's domain, by cross-multiplied numerators (positive denominators)."""
    d, lo, hi = f.domain, i.lo, i.hi
    if (
        d.lo.numerator * lo.denominator > lo.numerator * d.lo.denominator
        or hi.numerator * d.hi.denominator > d.hi.numerator * hi.denominator
    ):
        raise OutOfDomain(f"{i} is not inside {d}")
    return _grid_bounds(lo, hi, md)


def _leaf_hull(
    f: PathOracle, w: Interval, n: int, sden: int, snums: Sequence[int], spans: list
) -> Interval:
    """The part of w that some leaves cover, widened to f's grid at n.

    spans are the leaves' `BoxLevels.spans` in a hierarchy over f's
    values at the parameters snums / sden, from w.lo to w.hi, or any
    other ascending (first, last) point index pairs of those values.
    The part runs from the first point of the first span to the last
    point of the last, widened outward to points of f's grid at
    precision n (the multiples of 2^-(f.modulus(n) + 1)) and clipped to
    w, so leaves that hold both ends of w give w itself."""
    e = f.modulus(n) + 1
    lo, hi = snums[spans[0][0]], snums[spans[-1][1]]
    return Interval(
        max(w.lo, Fraction((lo << e) // sden, 1 << e)),
        min(w.hi, Fraction(-((-hi << e) // sden), 1 << e)),
    )


def dyadic_grid(lo: Fraction, hi: Fraction, md: int) -> list[Fraction]:
    """Endpoints plus all multiples of 2^-(md+1) strictly between them.

    Every gap is positive and strictly below 2^-md.
    """
    e, k0, k1 = _grid_bounds(lo, hi, md)
    return [lo, *(Fraction(k, 1 << e) for k in range(k0, k1 + 1)), hi]


def grid_runs(f: PathOracle, k0: int, k1: int, b: int, n: int) -> tuple[int, list]:
    """Values of f at precision n at k/b for k0 <= k <= k1, as pieces
    over a denominator that b divides (see `PathOracle`): those of
    `eval_runs` where f has it, else one list (none for k0 > k1).

    This is the one place where a curve without `eval_runs` (a user
    oracle that has only `eval_approx`, `modulus` and `domain`) is
    evaluated, point by point.
    """
    if k0 > k1:
        return b, []
    eval_runs = getattr(f, "eval_runs", None)
    if eval_runs is not None:
        return eval_runs(k0, k1, b, n)
    values = [f.eval_approx(Fraction(k, b), n) for k in range(k0, k1 + 1)]
    den, values = points_over_lcm(values)
    m = math.lcm(den, b) // den
    return den * m, [rescale(values, m)]


def grid_points(
    f: PathOracle, k0: int, k1: int, b: int, n: int
) -> tuple[int, list[IntPoint]]:
    """`grid_runs` with every piece expanded: the values as integer
    numerators over one denominator."""
    den, pieces = grid_runs(f, k0, k1, b, n)
    return den, _expanded(pieces)


def _expanded(pieces: list) -> list[IntPoint]:
    """The values of `grid_runs` pieces, in grid order."""
    out: list[IntPoint] = []
    for piece in pieces:
        if isinstance(piece, list):
            out += piece
        else:
            ka, kb, ax, bx, ay, by = piece
            out += [(ax + bx * k, ay + by * k) for k in range(ka, kb + 1)]
    return out


def _run_ends(k0: int, pieces: list) -> tuple[list[int], list[IntPoint]]:
    """The grid indices and values of pieces starting at index k0, each
    straight run cut to its two ends."""
    ks: list[int] = []
    out: list[IntPoint] = []
    for piece in pieces:
        if isinstance(piece, list):
            ks += range(k0, k0 + len(piece))
            out += piece
            k0 += len(piece)
        else:
            ka, kb, ax, bx, ay, by = piece
            for k in (ka, kb)[: max(kb - ka + 1, 0)]:  # none, one or both ends
                ks.append(k)
                out.append((ax + bx * k, ay + by * k))
            k0 = max(k0, kb + 1)
    return ks, out


def _with_ends(
    f: PathOracle,
    lo: Fraction,
    hi: Fraction,
    e: int,
    ks: Sequence[int],
    inner_den: int,
    inner: Sequence[IntPoint],
    n: int,
) -> IntPolyline:
    """The polyline through the grid values inner at k/2^e for k in ks,
    between the values at lo and hi."""
    ends_den, ends = points_over_lcm([f.eval_approx(lo, n), f.eval_approx(hi, n)])
    vden = math.lcm(inner_den, ends_den)
    z_lo, z_hi = rescale(ends, vden // ends_den)
    values = [z_lo, *rescale(inner, vden // inner_den), z_hi]
    return IntPolyline(*_grid_params(lo, hi, e, ks), vden, values)


def _grid_params(
    lo: Fraction, hi: Fraction, e: int, ks: Sequence[int]
) -> tuple[int, list[int]]:
    """(sden, snums): the parameters lo, k/2^e for k in ks, and hi, as
    numerators over one denominator."""
    sden = math.lcm(1 << e, lo.denominator, hi.denominator)
    step = sden >> e
    snums = [lo.numerator * (sden // lo.denominator)]
    snums += ks if step == 1 else map(step.__mul__, ks)
    snums.append(hi.numerator * (sden // hi.denominator))
    return sden, snums


def grid_values(
    f: PathOracle, lo: Fraction, hi: Fraction, md: int, n: int
) -> IntPolyline:
    """f at precision n on `dyadic_grid(lo, hi, md)`, in integers: grid
    point k at snums[k] / sden and its value at verts[k] / vden."""
    w = Interval(lo, hi)
    return _values_of(f, w, n, grid_pieces(f, w, md, n))


def _base_points(f: PathOracle, i: Interval, n: int) -> IntPolyline:
    """The grid of a precision-n track of f on i and its base points, the
    evaluations at precision n+2, over the oracle's own denominator.  The
    grid budget is checked first."""
    return _values_of(f, i, n + 2, grid_pieces(f, i, f.modulus(n), n + 2))


def _turn_points(f: PathOracle, i: Interval, n: int) -> IntPolyline:
    """`_base_points(f, i, n)` with only the two ends of each
    straight run kept (`grid_runs`): an in-order subsequence with the
    same first and last point, and the same polyline, parameter by
    parameter, since a run's values are affine in its parameter.  So
    every distance to it and every crossing with it is that of the full
    form.  The grid budget is checked on the full grid first.
    """
    return _turns_of(f, i, n + 2, grid_pieces(f, i, f.modulus(n), n + 2))


def grid_pieces(f: PathOracle, w: Interval, md: int, n: int) -> tuple:
    """(e, k0, k1, den, pieces): f at precision n at k/2^e for k0 <= k <=
    k1, the points of `dyadic_grid(w.lo, w.hi, md)` between its ends, as
    `grid_runs` gives them, once w is checked to lie in f's domain and
    the grid to fit the budget."""
    e, k0, k1 = _checked_bounds(f, w, md)
    return (e, k0, k1, *grid_runs(f, k0, k1, 1 << e, n))


def _values_of(f: PathOracle, w: Interval, n: int, grid: tuple) -> IntPolyline:
    """The polyline through f's values at precision n on w: those of its
    `grid_pieces` there, expanded, between the values at w's ends."""
    e, k0, k1, den, pieces = grid
    return _with_ends(f, w.lo, w.hi, e, range(k0, k1 + 1), den, _expanded(pieces), n)


def _turns_of(f: PathOracle, w: Interval, n: int, grid: tuple) -> IntPolyline:
    """`_values_of` with only the two ends of each straight run kept."""
    e, k0, _, den, pieces = grid
    ks, inner = _run_ends(k0, pieces)
    return _with_ends(f, w.lo, w.hi, e, ks, den, inner, n)


def __getattr__(name: str):
    """The paper's track builders of `track`, for callers that look them
    up here (perfbench's tracer rebinds them by name)."""
    if name in ("n_approximation", "n_approximation_pair"):
        return getattr(importlib.import_module(".track", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
