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
from typing import Callable, Iterable, Sequence

from ._fastgeom import BoxLevels, canonical_lines, lcm_denominators, scale_points
from .errors import EndpointViolation, OutOfDomain, PreconditionViolated
from .exact_geom import (
    Interval,
    Point,
    ceil_log2,
    interval,
    pow2,
    pt,
    rat,
)
from .track import Track, spiral_search

_JITTER_SPAN = 32  # random vertex offsets stay within 32 pitches per axis
_UNIT_DOMAIN = interval(0, 1)
_EXTENDED_DOMAIN = interval(-1, 2)


class PathOracle(ABC):
    """A curve known through approximations and a continuity modulus."""

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


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator d of the values and their numerators over d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


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
        # denominator for the lookup and the domain test, and each segment
        # as x = (x_span*b + dx*r) / (den*b), r = a*e - p0*b, at t = a/b
        self._pscale, self._pnums = _over_lcm([s for s, _ in cooked])
        segments = []
        slope = Fraction(0)
        for (s0, a), (s1, b) in zip(cooked, cooked[1:]):
            e, (p0, p1) = _over_lcm([s0, s1])
            d, (ax, ay, bx, by) = _over_lcm([a.x, a.y, b.x, b.y])
            span = p1 - p0
            segments.append(
                (e, p0, ax * span, bx - ax, ay * span, by - ay, d * span)
            )
            slope = max(slope, Fraction(abs(bx - ax) + abs(by - ay), d) / (s1 - s0))
        self._segments = tuple(segments)
        self._shift = _lipschitz_shift(slope)

    @property
    def entries(self) -> tuple[tuple[Fraction, Point], ...]:
        return self._entries

    @property
    def domain(self) -> Interval:
        return self._domain

    def eval_approx(self, t: Fraction, n: int) -> Point:
        a, b = t.numerator, t.denominator
        q, pnums = a * self._pscale, self._pnums
        if q < pnums[0] * b or q > pnums[-1] * b:
            raise _out_of_domain(t, self._domain)
        # the sample parameters are integers, so p <= q/b iff p <= floor(q/b)
        i = bisect_right(pnums, q // b) - 1
        if i == len(pnums) - 1:
            return self._entries[-1][1]
        e, p0, x_span, dx, y_span, dy, den = self._segments[i]
        r = a * e - p0 * b
        den *= b
        return Point(
            Fraction(x_span * b + dx * r, den), Fraction(y_span * b + dy * r, den)
        )

    def modulus(self, n: int) -> int:
        return n + self._shift


class QuadBezierPath(PathOracle):
    """Quadratic Bezier on [0, 1], evaluated exactly in integers.

    The control points are kept over a common denominator D; at t = a/b
    the Bernstein weights (b-a)^2, 2a(b-a) and a^2 put the value over D*b^2.
    """

    def __init__(self, p0: Point, p1: Point, p2: Point):
        self.p0, self.p1, self.p2 = p0, p1, p2
        self._den, self._ints = _over_lcm([p0.x, p1.x, p2.x, p0.y, p1.y, p2.y])
        d1, d2 = p1 - p0, p2 - p1
        bound = 2 * max(abs(d1.x) + abs(d1.y), abs(d2.x) + abs(d2.y))
        self._shift = _lipschitz_shift(Fraction(bound))

    @property
    def domain(self) -> Interval:
        return _UNIT_DOMAIN

    def eval_approx(self, t: Fraction, n: int) -> Point:
        a, b = t.numerator, t.denominator
        if a < 0 or a > b:
            raise _out_of_domain(t, _UNIT_DOMAIN)
        u = b - a
        w0, w1, w2 = u * u, 2 * a * u, a * a
        x0, x1, x2, y0, y1, y2 = self._ints
        den = self._den * b * b
        return Point(
            Fraction(x0 * w0 + x1 * w1 + x2 * w2, den),
            Fraction(y0 * w0 + y1 * w1 + y2 * w2, den),
        )

    def modulus(self, n: int) -> int:
        return n + self._shift


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

    def validate(self, max_n: int = 64) -> None:
        """Cross-check the asserted modulus against all sample pairs.

        Samples at ti < tj refute the modulus at n when tj - ti <
        2^-modulus(n) but |zj - zi| >= 2^-n.  The windows 2^-modulus(n)
        shrink as n grows, so the pair refutes the modulus iff it does so
        at the smallest n with |zj - zi| >= 2^-n; and a pair at least
        2^-modulus(0) apart in t refutes nothing.  So each pair closer
        than that costs one comparison, and the scan from each sample
        stops at the first sample beyond that window.
        """
        for n in range(max_n):
            if self.modulus(n + 1) <= self.modulus(n):
                raise PreconditionViolated("modulus is not increasing")
        if max_n <= 0:
            return
        windows = [pow2(-self.modulus(n)) for n in range(max_n)]
        entries = self._entries
        for i, (ti, zi) in enumerate(entries):
            horizon = ti + windows[0]
            for tj, zj in entries[i + 1 :]:
                if tj >= horizon:
                    break
                sq = (zj - zi).sq_norm()
                if sq == 0:
                    continue
                # smallest n >= 0 with 4^-n <= sq
                n = max(0, (ceil_log2(1 / sq) + 1) // 2)
                if n < max_n and tj - ti < windows[n]:
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
        a, b = t.numerator, t.denominator
        if a < -b or a > 2 * b:
            raise _out_of_domain(t, _EXTENDED_DOMAIN)
        if a <= 0:
            return Point(rat(t), _TAIL_Y[self.side][0])
        if a >= b:
            return Point(rat(t), _TAIL_Y[self.side][1])
        return self.inner.eval_approx(t, n)

    def modulus(self, n: int) -> int:
        # one extra bit pays for parameter pairs straddling a junction:
        # split at the junction and add the two halves' deviations
        return max(self.inner.modulus(n + 1), n + 1)


def extend(path: PathOracle, side: Side, check_precision: int = 20) -> ExtendedPath:
    """Attach straight tails after checking the corner conditions.

    The corners can only be refuted, not confirmed, from approximations:
    the path is rejected iff its value at 0 or 1 is provably farther than
    the evaluation error allows from the required corner.
    """
    if path.domain != _UNIT_DOMAIN:
        raise ValueError("only unit-interval paths can be extended")
    tol_sq = (2 * pow2(-check_precision)) ** 2
    for t, corner in zip((Fraction(0), Fraction(1)), _CORNERS[side]):
        z = path.eval_approx(t, check_precision)
        if (z - corner).sq_norm() > tol_sq:
            raise EndpointViolation(
                f"path value at {t} is provably not the corner {corner}"
            )
    return ExtendedPath(path, side)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def dyadic_grid(lo: Fraction, hi: Fraction, md: int) -> list[Fraction]:
    """Endpoints plus all multiples of 2^-(md+1) strictly between them.

    Every gap is positive and strictly below 2^-md.
    """
    if lo >= hi:
        raise ValueError("empty parameter interval")
    scale = 2 ** (md + 1)
    k0 = _floor(lo * scale) + 1
    k1 = -_floor(-hi * scale) - 1
    inner = [Fraction(k, scale) for k in range(k0, k1 + 1)]
    return [lo, *inner, hi]


def _base_points(
    f: PathOracle,
    grid: Sequence[Fraction],
    n: int,
    rng: random.Random | None,
) -> list[Point]:
    """Evaluations at precision n+2 on the grid, each moved by an optional
    random jitter of up to _JITTER_SPAN pitches 2^-(n+8) per axis."""
    pitch = pow2(-(n + 8))
    out = []
    for s in grid:
        base = f.eval_approx(s, n + 2)
        if rng is not None:
            i = rng.randint(-_JITTER_SPAN, _JITTER_SPAN)
            j = rng.randint(-_JITTER_SPAN, _JITTER_SPAN)
            base = Point(base.x + i * pitch, base.y + j * pitch)
        out.append(base)
    return out


def _fix_vertices(
    bases: Sequence[Point],
    n: int,
    accept_extra: Callable[[int, Point, Point | None], bool],
) -> list[Point]:
    """Vertices within 2^-n of the curve, adjacent ones distinct.

    Vertex k starts from bases[k] and walks a dyadic spiral of pitch
    2^-(n+8) until it differs from its predecessor and accept_extra(k,
    candidate, predecessor) holds.  Every candidate stays strictly within
    2^-(n+2) of its base, so the combined offset stays below 2^-n.
    """
    pitch = pow2(-(n + 8))
    sq_budget = pow2(-(n + 2)) ** 2
    out: list[Point] = []
    for k, base in enumerate(bases):
        prev = out[-1] if out else None
        # the unmoved base is almost always acceptable; the spiral
        # machinery is only paid for on rejection
        if (prev is None or base != prev) and accept_extra(k, base, prev):
            out.append(base)
            continue

        def ok(cand: Point, _k: int = k, _prev: Point | None = prev) -> bool:
            if _prev is not None and cand == _prev:
                return False
            return accept_extra(_k, cand, _prev)

        out.append(spiral_search(base, pitch, sq_budget, ok))
    return out


def _param_grid(f: PathOracle, i: Interval, n: int) -> list[Fraction]:
    """The dyadic grid of a precision-n track of f on i."""
    if not f.domain.contains_interval(i):
        raise OutOfDomain(f"{i} is not inside {f.domain}")
    return dyadic_grid(i.lo, i.hi, f.modulus(n))


def n_approximation(
    f: PathOracle,
    i: Interval,
    n: int,
    rng: random.Random | None = None,
) -> Track:
    """A track following f on i: gaps below 2^-modulus(n), vertices
    within 2^-n of the curve, consecutive vertices distinct."""
    grid = _param_grid(f, i, n)
    bases = _base_points(f, grid, n, rng)
    return Track(tuple(zip(grid, _fix_vertices(bases, n, lambda k, c, p: True))))


def _on_grid(z: Point, scale: int) -> tuple[int, int, int]:
    """(x, y, e) with z = (x, y) / (scale * e) and e as small as possible."""
    xd, yd = z.x.denominator, z.y.denominator
    full = math.lcm(scale, xd, yd)
    return z.x.numerator * (full // xd), z.y.numerator * (full // yd), full // scale


def n_approximation_pair(
    f: PathOracle,
    g: PathOracle,
    i: Interval,
    j: Interval,
    n: int,
    rng: random.Random | None = None,
) -> tuple[Track, Track]:
    """Weakly separated approximation tracks for f on i and g on j.

    Two phases: the f-track p is built freely, then each g-vertex is also
    required (A) to avoid every spanned line of p and (B) to span with its
    predecessor a line through no vertex of p.  Separation therefore
    holds by construction, not by rejection sampling.

    Both checks run on one integer grid holding p and all of g's base
    points (the rng is drawn in the same order as vertex by vertex, since
    the spiral search draws nothing).  For (A), each distinct line of p
    stabs the squares of half-width 2^-(n+2) around the bases, which
    contain every candidate the spiral may try, so each vertex tests only
    the few lines passing near it.  For (B), the integer line through the
    predecessor and the candidate stabs p's box levels.  Box tests only
    prune; the integer equality a*x + b*y == c decides every incidence,
    so the tracks are those of testing every line against every vertex.
    Cost: O(log |p|) box tests per line of p and per candidate, plus the
    vertices each passes close to, instead of O(|p|) tests per candidate.
    """
    p = n_approximation(f, i, n, rng)
    grid = _param_grid(g, j, n)
    bases = _base_points(g, grid, n, rng)
    scale = math.lcm(lcm_denominators(p.points), lcm_denominators(bases))
    p_ints = scale_points(p.points, scale)
    p_boxes = BoxLevels(p_ints)
    base_boxes = BoxLevels(scale_points(bases, scale))
    reach = -(-scale // 2 ** (n + 2))
    near_lines: dict[int, list[tuple[int, int, int]]] = {}
    for line in canonical_lines(p_ints):
        for k in base_boxes.stab(*line, reach):
            near_lines.setdefault(k, []).append(line)

    def clears(k: int, cand: Point, prev: Point | None) -> bool:
        x, y, e = _on_grid(cand, scale)
        for a, b, c in near_lines.get(k, ()):
            if a * x + b * y == c * e:
                return False
        if prev is None:
            return True
        x0, y0, e0 = _on_grid(prev, scale)
        if e0 != e:
            e_both = math.lcm(e0, e)
            x, y = x * (e_both // e), y * (e_both // e)
            x0, y0 = x0 * (e_both // e0), y0 * (e_both // e0)
            e = e_both
        a, b = y - y0, x0 - x
        # p's vertices sit on the grid at scale*e as (e*px, e*py)
        return not p_boxes.stab(a * e, b * e, a * x0 + b * y0, 0)

    return p, Track(tuple(zip(grid, _fix_vertices(bases, n, clears))))


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
