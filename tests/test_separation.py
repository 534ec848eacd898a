"""Weak separation decided by box-level line stabbing.

`weakly_separated`, `crossing_count`'s pre-pass and `n_approximation_pair`
prune with `BoxLevels.stab` and decide by integer equality.  They are
checked here against the all-pairs scans they replaced, kept in this file
as references: every spanned line tested against every vertex, and the
g-track built vertex by vertex with both line tests run over all of p.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from curvemeet import (
    NotSeparated,
    PolylinePath,
    Side,
    Track,
    crossing_count,
    curved_pair,
    diagonal_pair,
    dyadic_grid,
    extend,
    interval,
    make_track,
    n_approximation_pair,
    pow2,
    weakly_separated,
)
from curvemeet._fastgeom import BoxLevels
from curvemeet.exact_geom import Line, Point
from curvemeet.track import line_set

from ref_track import ref_spiral_search

# ------------------------------------------------------------ references


def ref_clears_lines(vertices, lines) -> bool:
    for line in lines:
        for v in vertices:
            if line.contains(v):
                return False
    return True


def ref_weakly_separated(p: Track, q: Track) -> bool:
    return ref_clears_lines(p.points, line_set(q)) and ref_clears_lines(
        q.points, line_set(p)
    )


def ref_track(f, iv, n, accept_extra, rng) -> Track:
    """The vertex-by-vertex construction: jittered base, then a spiral
    until the candidate differs from its predecessor and is accepted."""
    grid = dyadic_grid(iv.lo, iv.hi, f.modulus(n))
    pitch = pow2(-(n + 8))
    sq_budget = pow2(-(n + 2)) ** 2
    out: list[Point] = []
    for s in grid:
        base = f.eval_approx(s, n + 2)
        if rng is not None:
            i = rng.randint(-32, 32)
            j = rng.randint(-32, 32)
            base = Point(base.x + i * pitch, base.y + j * pitch)
        prev = out[-1] if out else None

        def ok(cand: Point, _prev=prev) -> bool:
            return (_prev is None or cand != _prev) and accept_extra(cand, _prev)

        out.append(base if ok(base) else ref_spiral_search(base, pitch, sq_budget, ok))
    return Track(tuple(zip(grid, out)))


def ref_pair(f, g, i, j, n, rng) -> tuple[Track, Track]:
    """The former `n_approximation_pair`: the `clears` closure tests every
    line of p and, through `Line.through`, every vertex of p."""
    p = ref_track(f, i, n, lambda c, prev: True, rng)
    scale = 1
    for v in p.points:
        scale = math.lcm(scale, v.x.denominator, v.y.denominator)
    p_scaled = [
        (
            v.x.numerator * (scale // v.x.denominator),
            v.y.numerator * (scale // v.y.denominator),
        )
        for v in p.points
    ]
    lines_p = [(ln.A, ln.B, ln.C) for ln in line_set(p)]

    def clears(cand: Point, prev: Point | None) -> bool:
        xn, xd = cand.x.numerator, cand.x.denominator
        yn, yd = cand.y.numerator, cand.y.denominator
        u, v, w = xn * yd, yn * xd, xd * yd
        for a, b, c in lines_p:
            if a * u + b * v == c * w:
                return False
        if prev is not None:
            ln = Line.through(prev, cand)
            a, b, c_scaled = ln.A, ln.B, ln.C * scale
            for vx, vy in p_scaled:
                if a * vx + b * vy == c_scaled:
                    return False
        return True

    return p, ref_track(g, j, n, clears, rng)


# ------------------------------------------------------------ BoxLevels


def test_stab_matches_brute_force() -> None:
    rng = random.Random(11)
    for size in (1, 2, 7, 8, 9, 16, 17, 100, 333):
        pts = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(size)]
        boxes = BoxLevels(pts)
        for _ in range(60):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if a == b == 0:
                a = 1
            c = rng.randint(-150, 150)
            pad = rng.choice((0, 0, 1, 3, 10))
            reach = (abs(a) + abs(b)) * pad
            want = [
                k for k, (x, y) in enumerate(pts) if abs(a * x + b * y - c) <= reach
            ]
            assert boxes.stab(a, b, c, pad) == want
        # a line through each point finds it
        for k, (x, y) in enumerate(pts):
            assert k in boxes.stab(1, -2, x - 2 * y, 0)


# ------------------------------------------------------------ weakly_separated


def _random_track(rng: random.Random, length: int, den: int) -> Track:
    # coordinates k/den for integers |k| <= 2*den: a coarse lattice makes
    # incidences common, a fine one rare
    pts = []
    while len(pts) < length:
        z = tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in "xy")
        if not pts or z != pts[-1]:
            pts.append(z)
    return make_track(list(enumerate(pts)))


def test_weakly_separated_matches_reference_on_random_tracks() -> None:
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for trial in range(400):
        den = rng.choice((1, 2, 3, 7, 1000, 10**6))
        p = _random_track(rng, rng.randint(2, 40), den)
        q = _random_track(rng, rng.randint(2, 40), rng.choice((1, den)))
        want = ref_weakly_separated(p, q)
        assert weakly_separated(p, q) == want, trial
        assert weakly_separated(q, p) == want, trial
        seen[want] += 1
    assert min(seen.values()) > 50


def test_weakly_separated_matches_reference_on_long_tracks() -> None:
    # enough vertices for several box levels; in odd trials one vertex of
    # q is moved far out onto the line of one of p's segments
    rng = random.Random(8)
    for trial in range(6):
        p = make_track(
            (k, (Fraction(k, 97), Fraction(rng.randint(0, 10**6), 10**6)))
            for k in range(200)
        )
        q = make_track(
            (k, (Fraction(rng.randint(0, 10**6), 10**6), Fraction(k, 89)))
            for k in range(150)
        )
        if trial % 2:
            i = rng.randrange(199)
            a, b = p.points[i], p.points[i + 1]
            entries = list(q.entries)
            k = rng.randrange(150)
            entries[k] = (entries[k][0], a + (b - a).scale(Fraction(-37, 3)))
            q = Track(tuple(entries))
        want = ref_weakly_separated(p, q)
        assert want == (trial % 2 == 0)
        assert weakly_separated(p, q) == want
        assert weakly_separated(q, p) == want


def test_weakly_separated_degenerate_tracks() -> None:
    diag = make_track((k, (k, k)) for k in range(20))  # one collinear run
    anti = make_track((k, (k, 19 - k)) for k in range(0, 20, 2))
    cases = [
        # a collinear run against a track off its line
        (diag, make_track([(0, ("1/2", 0)), (1, ("3/2", 1))]), True),
        # a vertex far out on the run's line
        (diag, make_track([(0, (0, 1)), (1, (1000, 1000))]), False),
        # a shared line, far from the other track's segment
        (
            make_track([(0, (5, 1)), (1, (6, 1))]),
            make_track([(0, (0, 1)), (1, ("1/2", 2))]),
            False,
        ),
        # two-vertex tracks crossing transversally
        (
            make_track([(0, (0, 0)), (1, (1, 1))]),
            make_track([(0, (0, 1)), (1, (1, 0))]),
            True,
        ),
        # two-vertex tracks on one line, disjoint
        (
            make_track([(0, (0, 0)), (1, (1, 1))]),
            make_track([(0, (3, 3)), (1, (4, 4))]),
            False,
        ),
        # the anti-diagonal passes (19/2, 19/2), which is no vertex of diag
        (diag, anti, True),
        (diag, make_track((k, (k, 18 - k)) for k in range(0, 20, 2)), False),
    ]
    for p, q, want in cases:
        assert ref_weakly_separated(p, q) == want
        assert weakly_separated(p, q) == want
        assert weakly_separated(q, p) == want
    for p, _q, _want in cases:
        assert not weakly_separated(p, p)


def test_crossing_count_rejects_what_the_reference_rejects() -> None:
    rng = random.Random(21)
    for _ in range(150):
        p = _random_track(rng, rng.randint(2, 12), 2)
        q = _random_track(rng, rng.randint(2, 12), 3)
        if ref_weakly_separated(p, q):
            crossing_count(p, q)
        else:
            with pytest.raises(NotSeparated):
                crossing_count(p, q)


# ------------------------------------------------------------ n_approximation_pair

_EXT = interval(-1, 2)
_UNIT = interval(0, 1)
_THREE_CROSSING = (
    PolylinePath(
        [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
    ),
    PolylinePath([(0, (0, 1)), (1, (1, 0))]),
)


def _extended(pair):
    return extend(pair[0], Side.LOWER), extend(pair[1], Side.UPPER)


PAIRS = {
    # every psi-tail base lies on the line of a phi-tail segment one unit
    # away, so each is rejected by a far-away line
    "diagonals": (*_extended(diagonal_pair()), _EXT),
    "curved": (*_extended(curved_pair()), _EXT),
    "three_crossing": (*_THREE_CROSSING, _UNIT),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("n", range(4, 9))
def test_pair_matches_reference_construction(name: str, n: int) -> None:
    # the reference scans all of p per candidate: at n = 8 with jitter
    # the curved pair alone takes about 50 s a seed, so seeds 0-4 run up
    # to n = 6 and n = 7, 8 run without jitter
    f, g, iv = PAIRS[name]
    for seed in (None, 0, 1, 2, 3, 4) if n <= 6 else (None,):
        rng = None if seed is None else random.Random(seed)
        got = n_approximation_pair(f, g, iv, iv, n, rng)
        rng = None if seed is None else random.Random(seed)
        assert got == ref_pair(f, g, iv, iv, n, rng), (seed,)


def test_diagonal_tails_are_moved_off_far_lines() -> None:
    f, g, iv = PAIRS["diagonals"]
    p, q = n_approximation_pair(f, g, iv, iv, 4)
    bases = [g.eval_approx(s, 6) for s in q.params]
    moved = {k for k, (z, b) in enumerate(zip(q.points, bases)) if z != b}
    # psi's tail bases lie on the lines y = 0 and y = 1 of phi's tails,
    # with the nearest phi segment one unit away: every one is moved
    tails = {k for k, s in enumerate(q.params) if s <= 0 or s >= 1}
    assert len(tails) > 200 and tails <= moved
    assert weakly_separated(p, q)
