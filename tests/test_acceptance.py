"""Acceptance gate: nine end-to-end criteria at pinned tolerances.

Each criterion is one test; a PASS/FAIL line per criterion is printed by
the terminal summary hook in conftest.py.  Runtime budgets are part of
the criteria and are asserted, not merely reported.  Oracles live next
to this file: a max-norm ball alternation classifier (ball_oracle), a
floating-point Bezier subdivision solver (subdivision_oracle) and the
randomized configuration builders (gen).
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

import pytest

import _report
from ball_oracle import ball_crossings
from gen import separated_pair, triangle_move_config
from subdivision_oracle import bezier_intersections

from curvemeet import (
    Segment,
    Side,
    crossing_count,
    curved_pair,
    diagonal_pair,
    eval_track,
    extend,
    extract_point,
    function_parity,
    interval,
    n_approximation,
    n_approximation_pair,
    pow2,
    pt,
    refine_sequence,
    sq_dist_point_segment,
    sq_dist_segment_segment,
    verify_certificate,
)
from curvemeet.exact_geom import Interval, Point

F = Fraction
FULL = interval(-1, 2)
UNIT = interval(0, 1)

PHI, PSI = diagonal_pair()
F_EXT = extend(PHI, Side.LOWER)
G_EXT = extend(PSI, Side.UPPER)
BPHI, BPSI = curved_pair()


def _criterion(num: int, label: str):
    """Record one summary line per criterion, also on failure."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper() -> None:
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                elapsed = time.perf_counter() - start
                _report.record(
                    num, label, "FAIL", f"{elapsed:.1f}s; {type(exc).__name__}"
                )
                raise
            _report.record(num, label, "PASS", detail)

        return wrapper

    return deco


# exact piecewise-linear images of the extended diagonal pair


def _f_point(s: F) -> Point:
    if s <= 0:
        return pt(s, 0)
    if s >= 1:
        return pt(s, 1)
    return pt(s, s)


def _g_point(t: F) -> Point:
    if t <= 0:
        return pt(t, 1)
    if t >= 1:
        return pt(t, 0)
    return pt(t, 1 - t)


def _chain(point_of, iv: Interval) -> list[Segment]:
    cuts = sorted({iv.lo, iv.hi, *(c for c in (F(0), F(1)) if iv.lo < c < iv.hi)})
    return [Segment(point_of(a), point_of(b)) for a, b in zip(cuts, cuts[1:])]


def _sq_to_chain(z: Point, chain: list[Segment]) -> F:
    return min(sq_dist_point_segment(z, seg) for seg in chain)


def _sq_chain_gap(a: list[Segment], b: list[Segment]) -> F:
    return min(sq_dist_segment_segment(x, y) for x in a for y in b)


def _dense(iv: Interval, count: int) -> list[F]:
    step = iv.width() / count
    return [iv.lo + k * step for k in range(count + 1)]


def _entries(track) -> list:
    return [(s, (z.x, z.y)) for s, z in track.entries]


@_criterion(1, "base parity 1 on both builtin pairs at n=5")
def test_criterion_1_base_parity() -> str:
    details = []
    for name, phi, psi in (("diagonals", PHI, PSI), ("bezier", BPHI, BPSI)):
        f = extend(phi, Side.LOWER)
        g = extend(psi, Side.UPPER)
        start = time.perf_counter()
        parity = function_parity(f, g, FULL, FULL, n=5)
        elapsed = time.perf_counter() - start
        assert parity == 1
        assert elapsed < 5.0
        details.append(f"{name} {elapsed:.2f}s")
    return ", ".join(details)


@_criterion(2, "parity 0 on 20 provably disjoint window pairs")
def test_criterion_2_disjoint_windows() -> str:
    rng = random.Random(3002)
    # base window pairs whose extended-diagonal images cannot meet
    families = [
        (interval(-1, F(-1, 4)), interval(F(5, 4), 2)),
        (interval(F(5, 4), 2), interval(-1, F(-1, 4))),
        (interval(-1, F(-1, 4)), interval(F(1, 4), F(3, 4))),
        (interval(0, F(1, 4)), interval(F(7, 8), 2)),
    ]

    def sub_window(base: Interval) -> Interval:
        while True:
            lo, hi = sorted(
                F(rng.randrange(int(base.lo * 32), int(base.hi * 32) + 1), 32)
                for _ in range(2)
            )
            if lo < hi:
                return Interval(lo, hi)

    start = time.perf_counter()
    for k in range(20):
        base_i, base_j = families[k % len(families)]
        i = sub_window(base_i)
        j = sub_window(base_j)
        # disjointness is proved exactly before parity is consulted
        gap = _sq_chain_gap(_chain(_f_point, i), _chain(_g_point, j))
        assert gap > F(1, 16)
        assert function_parity(F_EXT, G_EXT, i, j) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    return f"20/20 zero, {elapsed:.2f}s"


@_criterion(3, "identical parity across 100 randomized approximations")
def test_criterion_3_parity_well_defined() -> str:
    rng = random.Random(3003)
    window = interval(F(1, 4), F(3, 4))
    # clearance of this window pair is sqrt(2)/4, so working precision
    # n=6 satisfies 2^-6 < alpha/16, i.e. alpha > 1/4
    alpha_sq = F(1, 8)
    assert (16 * pow2(-6)) ** 2 < alpha_sq
    start = time.perf_counter()
    parities = set()
    for _ in range(100):
        p, q = n_approximation_pair(F_EXT, G_EXT, window, window, 6, rng)
        parities.add(crossing_count(p, q).parity)
    elapsed = time.perf_counter() - start
    assert len(parities) == 1
    assert parities == {function_parity(F_EXT, G_EXT, window, window)}
    assert elapsed < 60.0
    return f"100/100 parity {parities.pop()}, {elapsed:.1f}s"


@_criterion(4, "parity additivity over 50 randomized splits")
def test_criterion_4_additivity() -> str:
    rng = random.Random(3004)
    g_inner = _chain(_g_point, UNIT)
    accepted = 0
    start = time.perf_counter()
    while accepted < 50:
        a, c, b = sorted(F(rng.randrange(-32, 65), 32) for _ in range(3))
        if not (a < c < b):
            continue
        # every window endpoint value must clear g's image by more than
        # 16 * 2^-6 = 1/4 so that the fixed working precision is valid;
        # this also certifies the split premise f(c) not in g(J)
        if any(
            _sq_to_chain(_f_point(s), g_inner) <= F(1, 16) for s in (a, c, b)
        ):
            continue
        for t in (F(0), F(1)):
            assert _sq_to_chain(_g_point(t), _chain(_f_point, Interval(a, b))) > F(1, 16)
        whole, left, right = (
            crossing_count(*n_approximation_pair(F_EXT, G_EXT, w, UNIT, 6, rng)).parity
            for w in (Interval(a, b), Interval(a, c), Interval(c, b))
        )
        assert whole == (left + right) % 2
        accepted += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return f"50/50 additive, {elapsed:.1f}s"


@_criterion(5, "parity invariant under 100 triangle moves")
def test_criterion_5_triangle_moves() -> str:
    rng = random.Random(3005)
    start = time.perf_counter()
    for _ in range(100):
        p, q1, q2 = triangle_move_config(rng)
        assert crossing_count(p, q1).parity == crossing_count(p, q2).parity
    elapsed = time.perf_counter() - start
    return f"100/100 invariant, {elapsed:.1f}s"


@_criterion(6, "vertex and deviation bounds on 20 approximations")
def test_criterion_6_approximation_bounds() -> str:
    rng = random.Random(3006)
    paths = [PHI, PSI, BPHI, BPSI, F_EXT, G_EXT]
    start = time.perf_counter()
    for k in range(20):
        path = paths[k % len(paths)]
        n = rng.randint(3, 7)
        dom = path.domain
        width = dom.width()
        # window of half the domain width at a random dyadic offset
        lo = dom.lo + F(rng.randrange(0, 17), 32) * width
        span = Interval(lo, lo + width / 2)
        track = n_approximation(path, span, n, rng)
        step_sq = (3 * pow2(-n)) ** 2
        for (_, z1), (_, z2) in zip(track.entries, track.entries[1:]):
            assert (z2 - z1).sq_norm() < step_sq
        dev_sq = (5 * pow2(-n)) ** 2
        for t in _dense(span, 50):
            exact = path.eval_approx(t, 40)
            assert (eval_track(track, t) - exact).sq_norm() < dev_sq
    elapsed = time.perf_counter() - start
    return f"20/20 within bounds, {elapsed:.1f}s"


@_criterion(7, "crossing counts match the ball classifier on 500 pairs")
def test_criterion_7_oracle_equivalence() -> str:
    rng = random.Random(3007)
    start = time.perf_counter()
    max_count = 0
    for k in range(500):
        p, q = separated_pair(rng, rich=(k % 2 == 0))
        report = crossing_count(p, q)
        oracle = ball_crossings(_entries(p), _entries(q))
        assert report.count == len(oracle)
        assert [(s, t) for s, t, _ in report.crossings] == [
            (s, t) for _, _, s, t, _ in oracle
        ]
        max_count = max(max_count, report.count)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"500/500 agree, max count {max_count}, {elapsed:.1f}s"


@_criterion(8, "16-round certificate pins the diagonal crossing")
def test_criterion_8_end_to_end_certificate() -> str:
    start = time.perf_counter()
    cert = refine_sequence(PHI, PSI, 16)
    assert len(cert.records) == 17
    # neighborhood chain, once through adaptive sampling and once more
    # against the exact piecewise-linear images
    verify_certificate(cert, PHI, PSI)
    for prev, rec in zip(cert.records, cert.records[1:]):
        g_prev = _chain(_g_point, prev.j)
        r_prev = pow2(-(rec.m - 1))
        for s in _dense(rec.i, 32):
            assert _sq_to_chain(_f_point(s), g_prev) < r_prev * r_prev
        f_cur = _chain(_f_point, rec.i)
        r_cur = pow2(-rec.m)
        for t in _dense(rec.j, 32):
            assert _sq_to_chain(_g_point(t), f_cur) < r_cur * r_cur
    bound = pow2(-14) ** 2
    for s in _dense(cert.s_phi, 64):
        assert 2 * (s - F(1, 2)) ** 2 <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"17 records verified, {elapsed:.1f}s"


@_criterion(9, "extracted curved crossing matches the subdivision solver")
def test_criterion_9_curved_end_to_end() -> str:
    start = time.perf_counter()

    # oracle first: plain float subdivision plus Newton polish
    def ctrl(bez) -> tuple:
        return tuple(
            (float(p.x), float(p.y)) for p in (bez.p0, bez.p1, bez.p2)
        )

    found = bezier_intersections(ctrl(BPHI), ctrl(BPSI), tol=1e-9)
    assert len(found) == 1
    _, _, (x_star, y_star) = found[0]

    cert = refine_sequence(BPHI, BPSI, 8)
    ball = extract_point(cert, BPHI, pow2(-10))
    assert ball.radius <= pow2(-10)
    err_sq = (ball.center - pt(F(x_star), F(y_star))).sq_norm()
    assert err_sq <= pow2(-8) ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return f"center error {float(err_sq) ** 0.5:.2e}, {elapsed:.1f}s"
