"""Integer approximation tracks against the Fraction track builder.

Tracks are built from whole-grid integer evaluations, jittered and
spiralled on integer offsets, and stored as numerators over one
parameter and one vertex denominator.  The `Fraction` builder they
replaced is kept here as the reference: one `eval_approx` per grid
point, `Point` offsets, a `Point` spiral and one common scale per pair
check.  Every track must come out with equal entries, and every oracle's
integer grid must equal its `eval_approx` values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemeet import (
    CrossingReport,
    ExtendedPath,
    OutOfDomain,
    PolylinePath,
    QuadBezierPath,
    Side,
    PointApproximation,
    SegKind,
    Segment,
    TablePath,
    Track,
    classify_segment_pair,
    crossing_count,
    curved_pair,
    diagonal_pair,
    eval_track,
    extend,
    extract_point,
    interval,
    n_approximation,
    n_approximation_pair,
    pow2,
    pt,
    refine_sequence,
    sqrt_enclosure,
)
from curvemeet._fastgeom import BoxLevels, rescale
from curvemeet.cli import emit_certificate
from curvemeet.errors import NotConverged
from curvemeet.exact_geom import Interval, Point
from curvemeet.paths import _base_points, grid_points, grid_runs, grid_values
from curvemeet.track import (
    _jittered_base_points,
    canonical_lines,
    separated_vertices,
    spiral_search,
    stab,
)

from ref_track import ref_separated_points, ref_spiral_search

F = Fraction

# ------------------------------------------------------------ reference


def ref_dyadic_grid(lo: Fraction, hi: Fraction, md: int) -> list[Fraction]:
    scale = 2 ** (md + 1)
    k0 = math.floor(lo * scale) + 1
    k1 = -math.floor(-hi * scale) - 1
    return [lo, *(Fraction(k, scale) for k in range(k0, k1 + 1)), hi]


def ref_base_points(f, grid, n, rng) -> list[Point]:
    pitch = pow2(-(n + 8))
    out = []
    for s in grid:
        base = f.eval_approx(s, n + 2)
        if rng is not None:
            i = rng.randint(-32, 32)
            j = rng.randint(-32, 32)
            base = Point(base.x + i * pitch, base.y + j * pitch)
        out.append(base)
    return out


def ref_fix_vertices(bases, n, accept_extra) -> list[Point]:
    pitch = pow2(-(n + 8))
    sq_budget = pow2(-(n + 2)) ** 2
    out: list[Point] = []
    for k, base in enumerate(bases):
        prev = out[-1] if out else None
        if (prev is None or base != prev) and accept_extra(k, base, prev):
            out.append(base)
            continue

        def ok(cand, _k=k, _prev=prev) -> bool:
            if _prev is not None and cand == _prev:
                return False
            return accept_extra(_k, cand, _prev)

        out.append(ref_spiral_search(base, pitch, sq_budget, ok))
    return out


def ref_grid(f, iv: Interval, n: int) -> list[Fraction]:
    if not f.domain.contains_interval(iv):
        raise OutOfDomain(f"{iv} is not inside {f.domain}")
    return ref_dyadic_grid(iv.lo, iv.hi, f.modulus(n))


def ref_n_approximation(f, iv, n, rng=None) -> Track:
    grid = ref_grid(f, iv, n)
    bases = ref_base_points(f, grid, n, rng)
    return Track(tuple(zip(grid, ref_fix_vertices(bases, n, lambda k, c, p: True))))


def _scaled(points, scale):
    return [
        (z.x.numerator * (scale // z.x.denominator), z.y.numerator * (scale // z.y.denominator))
        for z in points
    ]


def _lcm_points(points) -> int:
    return math.lcm(*(c.denominator for z in points for c in (z.x, z.y)))


def _on_grid(z: Point, scale: int) -> tuple[int, int, int]:
    xd, yd = z.x.denominator, z.y.denominator
    full = math.lcm(scale, xd, yd)
    return z.x.numerator * (full // xd), z.y.numerator * (full // yd), full // scale


def ref_pair(f, g, i, j, n, rng=None) -> tuple[Track, Track]:
    p = ref_n_approximation(f, i, n, rng)
    grid = ref_grid(g, j, n)
    bases = ref_base_points(g, grid, n, rng)
    scale = math.lcm(_lcm_points(p.points), _lcm_points(bases))
    p_ints = _scaled(p.points, scale)
    p_boxes = BoxLevels(p_ints)
    base_boxes = BoxLevels(_scaled(bases, scale))
    reach = -(-scale // 2 ** (n + 2))
    near_lines: dict[int, list] = {}
    for line in canonical_lines(p_ints):
        for k in stab(base_boxes, *line, reach):
            near_lines.setdefault(k, []).append(line)

    def clears(k, cand, prev) -> bool:
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
        return not stab(p_boxes, a * e, b * e, a * x0 + b * y0, 0)

    return p, Track(tuple(zip(grid, ref_fix_vertices(bases, n, clears))))


# --------------------------------------------------------------- oracles

ZIGZAG = PolylinePath(
    [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
)
PAUSING = PolylinePath(
    [("-2/7", (0, 0)), ("1/5", ("1/2", "1/3")), ("3/4", ("1/2", "1/3")), ("9/7", (2, -1))]
)
TABLE = TablePath(
    [(0, (0, 1)), ("1/6", ("1/3", "5/6")), ("5/11", ("1/2", "1/2")), (1, (1, 0))],
    modulus_offset=2,
)
BENT = QuadBezierPath(pt(0, 0), pt("-3/7", "11/6"), pt(1, 1))
UNIT_ORACLES = {
    "bezier_phi": curved_pair()[0],
    "bezier_psi": curved_pair()[1],
    "bezier_bent": BENT,
    "diag_phi": diagonal_pair()[0],
    "diag_psi": diagonal_pair()[1],
    "zigzag": ZIGZAG,
    "table": TABLE,
}
ORACLES = {
    **UNIT_ORACLES,
    "pausing": PAUSING,
    **{
        f"ext_{name}_{side.value}": ExtendedPath(UNIT_ORACLES[name], side)
        for name in ("bezier_phi", "bezier_psi", "diag_psi", "zigzag", "table")
        for side in (Side.LOWER, Side.UPPER)
    },
}


class DuckCurve:
    """A curve with nothing but eval_approx, modulus and domain."""

    def __init__(self, twin):
        self._twin = twin
        self.domain = twin.domain

    def eval_approx(self, t, n):
        return self._twin.eval_approx(t, n)

    def modulus(self, n):
        return self._twin.modulus(n)


# every oracle above, and one that the grid code evaluates point by point
GRID_ORACLES = {
    **ORACLES,
    "duck_ext_bezier_phi_lower": DuckCurve(ORACLES["ext_bezier_phi_lower"]),
}


def windows(f) -> list[Interval]:
    """The full domain, windows with endpoints 1/3 and on a 1/24 grid,
    and one window inside a single grid cell."""
    lo, hi = f.domain.lo, f.domain.hi
    w = hi - lo
    out = [
        f.domain,
        Interval(lo + w / 3, hi),
        Interval(lo + w * F(1, 24), lo + w * F(7, 24)),
        Interval(lo + w * F(11, 24), lo + w * F(13, 24)),
        Interval(lo + w * F(1, 3), lo + w * F(1, 3) + F(1, 10**6)),
    ]
    if lo < 0 < 1 < hi:
        out.append(Interval(F(-1, 24), F(25, 24)))  # across both junctions
    return out


def run_values(k0: int, pieces: list) -> list[tuple[int, tuple[int, int]]]:
    """(k, value) for each grid index k that `grid_runs` pieces starting
    at index k0 cover, checking that they cover consecutive indices."""
    out = []
    for piece in pieces:
        if isinstance(piece, list):
            out += zip(range(k0, k0 + len(piece)), piece)
            k0 += len(piece)
        else:
            ka, kb, ax, bx, ay, by = piece
            if ka <= kb:
                assert ka == k0
                out += ((k, (ax + bx * k, ay + by * k)) for k in range(ka, kb + 1))
                k0 = kb + 1
    return out


@pytest.mark.parametrize("name", sorted(GRID_ORACLES))
def test_dyadic_values_match_eval_approx(name: str) -> None:
    # dyadic grids as the tracks use them, and grids k/b for other b,
    # as one list of values and as the pieces of `grid_runs`
    f = GRID_ORACLES[name]
    lo, hi = f.domain.lo, f.domain.hi
    for b in (1, 2, 8, 64, 3, 10, 35):
        k_lo, k_hi = math.ceil(lo * b), math.floor(hi * b)
        for k0, k1 in (
            (k_lo, k_hi),
            (k_lo + 1, k_hi - 1),
            (k_hi, k_hi),
            (k_lo, k_lo),
            (k_lo + 1, k_lo),  # empty
        ):
            den, values = grid_points(f, k0, k1, b, 7)
            assert len(values) == max(0, k1 - k0 + 1)
            for k, (x, y) in zip(range(k0, k1 + 1), values):
                assert Point(F(x, den), F(y, den)) == f.eval_approx(F(k, b), 7), (b, k)
            den, pieces = grid_runs(f, k0, k1, b, 7)
            assert den % b == 0
            runs = run_values(k0, pieces)
            assert [k for k, _ in runs] == list(range(k0, k1 + 1))
            for k, (x, y) in runs:
                assert Point(F(x, den), F(y, den)) == f.eval_approx(F(k, b), 7), (b, k)
        for k in (k_lo - 1, k_hi + 1):
            with pytest.raises(OutOfDomain):
                grid_points(f, k, k, b, 7)


@given(
    name=st.sampled_from(sorted(ORACLES)),
    a=st.fractions(min_value=0, max_value=1, max_denominator=1000),
    b=st.fractions(min_value=0, max_value=1, max_denominator=1000),
    md=st.integers(min_value=-1, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_grid_values_match_eval_approx_on_the_dyadic_grid(name, a, b, md) -> None:
    f = ORACLES[name]
    if a == b:
        return
    lo_f, w = f.domain.lo, f.domain.width()
    lo, hi = lo_f + w * min(a, b), lo_f + w * max(a, b)
    sden, snums, vden, values = grid_values(f, lo, hi, md, 9)
    grid = ref_dyadic_grid(lo, hi, md)
    assert [F(s, sden) for s in snums] == grid
    assert [Point(F(x, vden), F(y, vden)) for x, y in values] == [
        f.eval_approx(s, 9) for s in grid
    ]


# --------------------------------------------------------------- tracks


def _extended(pair):
    return extend(pair[0], Side.LOWER), extend(pair[1], Side.UPPER)


SEEDS = (None, 0, 1, 2, 3, 4)


def _rng(seed):
    return None if seed is None else random.Random(seed)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_n_approximation_matches_fraction_builder(name: str) -> None:
    f = ORACLES[name]
    for iv in windows(f):
        for n in (2, 5):
            for seed in SEEDS:
                got = n_approximation(f, iv, n, _rng(seed))
                want = ref_n_approximation(f, iv, n, _rng(seed))
                assert got.entries == want.entries, (iv, n, seed)
                assert got == want


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_base_points_match_fraction_reference(name: str) -> None:
    # the base points keep the oracle's own denominator; the paper
    # route's jitter puts them over a multiple of 2^(n+8) and the spiral
    # of n_approximation over one of 2^(n+19)
    f = ORACLES[name]
    for iv in windows(f):
        for n in (2, 5):
            grid = ref_grid(f, iv, n)
            oracle_den = grid_values(f, iv.lo, iv.hi, f.modulus(n), n + 2)[2]
            for seed in SEEDS:
                sden, snums, den, bases = (
                    _base_points(f, iv, n)
                    if seed is None
                    else _jittered_base_points(f, iv, n, _rng(seed))
                )
                want = ref_base_points(f, grid, n, _rng(seed))
                assert [Point(F(x, den), F(y, den)) for x, y in bases] == want
                assert [F(s, sden) for s in snums] == grid
                if seed is None:
                    assert den == oracle_den
                else:
                    assert den % 2 ** (n + 8) == 0
                track = n_approximation(f, iv, n, _rng(seed))
                assert track.vden % 2 ** (n + 19) == 0


EXT = interval(-1, 2)
PAIRS = {
    # every psi-tail base lies on a phi-tail line: the spiral runs often
    "diagonals": (*_extended(diagonal_pair()), [(EXT, EXT)]),
    "curved": (
        *_extended(curved_pair()),
        [(EXT, EXT), (interval("1/3", "5/3"), interval("-1/24", "7/24"))],
    ),
    "zigzag": (
        ZIGZAG,
        diagonal_pair()[1],
        [(interval(0, 1), interval(0, 1)), (interval("1/24", "11/24"), interval("1/3", "2/3"))],
    ),
    "bezier_table": (BENT, TABLE, [(interval(0, 1), interval("1/3", 1))]),
    # one curve against itself: lines of p pass through g's bases
    "self": (ZIGZAG, ZIGZAG, [(interval(0, "3/4"), interval("1/4", 1))]),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("n", (3, 5))
def test_n_approximation_pair_matches_fraction_builder(name: str, n: int) -> None:
    f, g, wins = PAIRS[name]
    for i, j in wins:
        for seed in SEEDS:
            got = n_approximation_pair(f, g, i, j, n, _rng(seed))
            want = ref_pair(f, g, i, j, n, _rng(seed))
            assert [t.entries for t in got] == [t.entries for t in want], (i, j, seed)


@pytest.mark.parametrize("halvings", (1, 2, 3))
def test_forced_pitch_halvings_match_fraction_builder(halvings: int) -> None:
    # with the budget at one pitch, level l of the spiral tries the points
    # (i, j) * pitch/2^l with i^2 + j^2 < 4^l; vertical walls through
    # every x offset of level halvings-1 reject each candidate of the
    # levels before `halvings` around the picky bases
    den, pitch, far = 3 * 2**40, 2**20, 2**50
    bases = [(7 * k * 2**30 + 5 * k, (-1) ** k * 2**31 + 3 * k) for k in range(8)]
    picky, half = {1, 5, 6}, 2 ** (halvings - 1)
    walls = [
        [(x, far), (x, -far)]
        for k in sorted(picky)
        for x in (bases[k][0] + i * pitch // half for i in range(1 - half, half))
    ]
    got = separated_vertices(bases, walls, pitch, pitch * pitch)

    def points(ints):
        return [Point(F(x, den), F(y, den)) for x, y in ints]

    others = [Track(tuple(zip((0, 1), points(w)))) for w in walls]
    want = ref_separated_points(points(bases), others, F(pitch, den), F(pitch, den) ** 2)
    assert points(got) == want
    offsets = {
        k: (x - bx, y - by)
        for k, ((x, y), (bx, by)) in enumerate(zip(got, bases))
        if (x, y) != (bx, by)
    }
    # each picky vertex takes the first candidate of level `halvings`
    assert offsets == {k: (pitch >> halvings, 0) for k in picky}


def test_integer_spiral_visits_candidates_in_point_order() -> None:
    seen_points, seen_ints = [], []
    center, den = pt("1/3", "-2/7"), 21 * 2**26
    budget = F(1, 2**10)

    def reject_points(z) -> bool:
        seen_points.append(z)
        return len(seen_points) > 700

    def reject_ints(c) -> bool:
        seen_ints.append(c)
        return len(seen_ints) > 700

    a = ref_spiral_search(center, F(1, 2**14), budget, reject_points)
    b = spiral_search((7 * 2**26, -6 * 2**26), den >> 14, budget * den * den, reject_ints)
    assert [Point(F(x, den), F(y, den)) for x, y in seen_ints] == seen_points
    assert Point(F(b[0], den), F(b[1], den)) == a
    with pytest.raises(ValueError):
        spiral_search((0, 0), 3, 100, reject_ints)


# ------------------------------------------------------------ consumers


def ref_crossing_report(p: Track, q: Track) -> CrossingReport:
    """Every segment pair classified on the Fraction views."""
    pe, qe = p.entries, q.entries
    out = []
    for (s0, a), (s1, b) in zip(pe, pe[1:]):
        for (t0, c), (t1, d) in zip(qe, qe[1:]):
            rel = classify_segment_pair(Segment(a, b), Segment(c, d))
            if rel.kind is SegKind.PROPER_CROSSING:
                z = rel.point
                u = (z.x - a.x) / (b.x - a.x) if a.x != b.x else (z.y - a.y) / (b.y - a.y)
                v = (z.x - c.x) / (d.x - c.x) if c.x != d.x else (z.y - c.y) / (d.y - c.y)
                out.append((s0 + u * (s1 - s0), t0 + v * (t1 - t0), z))
    return CrossingReport(tuple(out), len(out), len(out) % 2)


@pytest.mark.parametrize(
    "f, g, n",
    [
        (*_extended(curved_pair()), 2),
        (*_extended(diagonal_pair()), 2),
        (ZIGZAG, diagonal_pair()[1], 4),
    ],
)
def test_crossing_reports_match_fraction_reference(f, g, n) -> None:
    for seed in (None, 0, 1):
        p, q = n_approximation_pair(f, g, f.domain, g.domain, n, _rng(seed))
        report = crossing_count(p, q)
        assert report.count > 0
        assert report == ref_crossing_report(p, q)


def ref_extract_point(cert, phi, eps) -> PointApproximation:
    """The ball from the Fraction builder's tracks and Fraction bounds."""
    f = extend(phi, Side.LOWER)
    for rec in cert.records:
        n_ap = rec.m + 6
        points = ref_n_approximation(f, rec.i, n_ap).points
        xs, ys = [z.x for z in points], [z.y for z in points]
        cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
        half_sq = (max(xs) - cx) ** 2 + (max(ys) - cy) ** 2
        radius = sqrt_enclosure(half_sq, n_ap).hi + 5 * pow2(-n_ap)
        if radius <= eps:
            return PointApproximation(pt(cx, cy), radius, rec.m)
    raise AssertionError("no record is small enough")


@pytest.mark.parametrize("pair", [curved_pair, diagonal_pair])
def test_extracted_balls_match_fraction_reference(pair) -> None:
    phi, psi = pair()
    cert = refine_sequence(phi, psi, 3)
    for eps in (F(1, 2), F(1, 32), F(1, 64)):
        assert extract_point(cert, phi, eps) == ref_extract_point(cert, phi, eps)


def test_extraction_where_the_spiral_moves_vertices() -> None:
    # phi pauses at the crossing, so its tracks repeat base points there
    # and the spiral moves them; the turn points' box can only be smaller
    half = F(1, 2)
    phi = PolylinePath(
        [(0, (0, 0)), (F(1, 3), (half, half)), (F(2, 3), (half, half)), (1, (1, 1))]
    )
    cert = refine_sequence(phi, diagonal_pair()[1], 2)
    f, last = extend(phi, Side.LOWER), cert.final
    track = n_approximation(f, last.i, last.m + 6)
    den, bases = _base_points(f, last.i, last.m + 6)[2:]
    assert list(track.verts) != list(rescale(bases, track.vden // den))
    balls = 0
    for k in range(1, 10):
        try:
            ball = extract_point(cert, phi, pow2(-k))
        except NotConverged:
            continue
        balls += 1
        assert (ball.center - pt(half, half)).sq_norm() <= ball.radius**2
        assert ball.radius <= ref_extract_point(cert, phi, pow2(-k)).radius
    assert balls > 0


# ------------------------------------------------------------ track API


def test_track_views_and_integer_forms_agree() -> None:
    f = extend(curved_pair()[1], Side.UPPER)
    iv = interval("-1/24", "23/12")
    for n in (3, 6):
        track = n_approximation(f, iv, n, random.Random(n))
        rebuilt = Track(track.entries)
        assert rebuilt == track and rebuilt.entries == track.entries
        assert len(rebuilt) == len(track) == len(track.params) == len(track.points)
        assert track.domain() == (iv.lo, iv.hi)
        assert [track.param(k) for k in range(len(track))] == list(track.params)
        assert [track.point(k) for k in range(len(track))] == list(track.points)
        assert repr(rebuilt) == repr(track)
        assert hash(rebuilt) == hash(track)
    # equal grids and denominators, different jitter
    a, b = (n_approximation(f, iv, 4, random.Random(seed)) for seed in (0, 1))
    assert (a.sden, a.snums, a.vden) == (b.sden, b.snums, b.vden)
    assert a != b and a == n_approximation(f, iv, 4, random.Random(0))


@given(t=st.fractions(min_value=0, max_value=1, max_denominator=10**4))
@settings(max_examples=200, deadline=None)
def test_eval_track_matches_fraction_interpolation(t: Fraction) -> None:
    track = n_approximation(extend(curved_pair()[0], Side.LOWER), EXT, 3, random.Random(1))
    s = -1 + 3 * t
    entries = track.entries
    k = max(k for k, (p, _) in enumerate(entries) if p <= s)
    if k == len(entries) - 1:
        want = entries[k][1]
    else:
        (s0, a), (s1, b) = entries[k], entries[k + 1]
        want = a + (b - a).scale((s - s0) / (s1 - s0))
    assert eval_track(track, s) == want
    with pytest.raises(OutOfDomain):
        eval_track(track, F(-1) - t - F(1, 10**9))


# ---------------------------------------------------------- duck typing


@pytest.mark.parametrize("pair", [curved_pair, diagonal_pair])
def test_duck_typed_curves_certify_like_their_builtin_twins(pair) -> None:
    phi, psi = pair()
    assert not hasattr(DuckCurve(phi), "eval_runs")
    want = emit_certificate(refine_sequence(phi, psi, 2), {})
    got = emit_certificate(refine_sequence(DuckCurve(phi), DuckCurve(psi), 2), {})
    assert got == want
    f = DuckCurve(extend(phi, Side.LOWER))
    for seed in (None, 3):
        assert n_approximation(f, EXT, 4, _rng(seed)) == ref_n_approximation(
            f, EXT, 4, _rng(seed)
        )
