"""Weak separation decided by box-level line stabbing.

`weakly_separated` and `n_approximation_pair` share one predicate, which
prunes with `BoxLevels.stab` and decides by integer equality.  They are
checked here against the all-pairs scans they replaced: every spanned
line tested against every vertex (`ref_weakly_separated`), and the
g-track built vertex by vertex with both line tests run over all of p
(`ref_track.ref_pair`).
`function_parity` builds no separated pair: it counts base-point
polylines under a symbolic translation, and is held here to the parity
of the checked pair `n_approximation_pair` builds.
"""

from __future__ import annotations

import hashlib
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
    extend,
    function_parity,
    interval,
    make_track,
    n_approximation,
    n_approximation_pair,
    weakly_separated,
    working_precision,
)
from curvemeet._fastgeom import BoxLevels
from curvemeet.track import line_set

from ref_track import ref_pair
from test_working_precision import WINDOWS as WP_WINDOWS
from test_working_precision import _case as wp_case

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


def test_collinear_run_stabs_once(monkeypatch) -> None:
    # a straight track spans one line; the zigzag around it meets that
    # line in every box, so stabbing it once per segment would cost
    # O(|zig|) per segment
    line = make_track((k, (k, 0)) for k in range(400))
    zig = make_track((k, (Fraction(3 * k + 1, 3), (-1) ** k)) for k in range(400))
    horizontal = []
    stab = BoxLevels.stab

    def counting_stab(self, a, b, c, pad):
        horizontal.append(a == 0)
        return stab(self, a, b, c, pad)

    monkeypatch.setattr(BoxLevels, "stab", counting_stab)
    assert weakly_separated(zig, line) and weakly_separated(line, zig)
    assert sum(horizontal) == 2  # the line's (B) stab, and its (A) stab
    assert ref_weakly_separated(zig, line)


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


def _canonical(a: int, b: int, c: int) -> tuple[int, int, int]:
    k = math.gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        k = -k
    return a // k, b // k, c // k


@pytest.mark.parametrize("n", (5, 6, 7))
def test_failed_line_is_not_stabbed_again(n: int, monkeypatch) -> None:
    # along y = 1 - x every psi-line meets phi's vertex (1/2, 1/2), and the
    # spiral re-tests its rejected center first: check B remembers the
    # line that failed, so no failing line is stabbed twice in a row
    f, g, iv = PAIRS["diagonals"]
    stabs: list[tuple[tuple[int, int, int], bool]] = []
    stab = BoxLevels.stab

    def recording_stab(self, a, b, c, pad):
        hits = stab(self, a, b, c, pad)
        if pad == 0:  # check B; check A stabs with the budget's reach
            stabs.append((_canonical(a, b, c), bool(hits)))
        return hits

    monkeypatch.setattr(BoxLevels, "stab", recording_stab)
    got = n_approximation_pair(f, g, iv, iv, n)
    monkeypatch.undo()
    assert any(hit for _line, hit in stabs)
    for (line, hit), (after, _) in zip(stabs, stabs[1:]):
        assert not (hit and after == line), line
    assert got == ref_pair(f, g, iv, iv, n, None)


# ------------------------------------------------------------ function_parity

# windows per pair, each with a clearance that certifies n <= 9 and
# tracks short enough for the reference
WINDOWS = {
    "diagonals": [
        (interval("3/8", "5/8"), interval("3/8", "5/8")),
        (interval(-1, "-1/2"), interval("1/4", "3/4")),
    ],
    "curved": [
        (interval("3/8", "1/2"), interval("1/4", "5/16")),
        (interval("1/2", "3/4"), interval("1/2", "3/4")),
    ],
    "three_crossing": [
        (interval("1/4", "3/4"), interval("1/4", "3/4")),
        (interval(0, "1/4"), interval(0, "3/8")),
    ],
}


def _paper_parity(f, g, i, j, n, seed) -> int:
    """The parity by the paper's route: count a separated pair, checked."""
    rng = None if seed is None else random.Random(seed)
    return crossing_count(*n_approximation_pair(f, g, i, j, n, rng)).parity


def _function_parity(f, g, i, j, n, seed) -> int:
    rng = None if seed is None else random.Random(seed)
    return function_parity(f, g, i, j, n=n, rng=rng)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_function_parity_matches_separated_pair_parity(name: str) -> None:
    # function_parity counts base-point polylines under a symbolic
    # translation; the separated pair of the same n and rng draws, counted
    # by the checked route, must have the same parity
    f, g, _iv = PAIRS[name]
    parities = set()
    for i, j in WINDOWS[name]:
        certified = working_precision(f, g, i, j)[1]
        for n in (None, 3, 5, 7):
            for seed in (None, 0, 3):
                got = _function_parity(f, g, i, j, n, seed)
                assert got == _paper_parity(f, g, i, j, n or certified, seed), (
                    i, j, n, seed
                )
                parities.add(got)
    assert parities == {0, 1}


@pytest.mark.parametrize("window", WP_WINDOWS, ids=[" ".join(w) for w in WP_WINDOWS])
def test_function_parity_matches_on_working_precision_windows(window) -> None:
    f, g, _c1, _c2, i, j = wp_case(*window)
    n = working_precision(f, g, i, j)[1]
    assert function_parity(f, g, i, j) == _paper_parity(f, g, i, j, n, None)


# diagonal windows around t = 1/2, a grid parameter at every n: both
# base-point polylines pass through the crossing point (1/2, 1/2), where
# the untranslated orientation signs are 0
VERTEX_WINDOWS = [
    (interval("1/4", "3/4"), interval("1/4", "3/4")),
    (interval("3/8", "5/8"), interval("1/4", "3/4")),
    (interval(0, 1), interval("1/4", "3/4")),
    (interval("-1/2", "3/2"), interval(0, 1)),
]


@pytest.mark.parametrize("n", range(3, 10))
def test_function_parity_matches_where_the_crossing_is_a_shared_vertex(
    n: int,
) -> None:
    f, g, _iv = PAIRS["diagonals"]
    half = (Fraction(1, 2), Fraction(1, 2))
    for i, j in VERTEX_WINDOWS:
        p, q = n_approximation(f, i, n), n_approximation(g, j, n)
        assert half in {(z.x, z.y) for z in p.points} & {(z.x, z.y) for z in q.points}
        for seed in (None, 0):
            got = _function_parity(f, g, i, j, n, seed)
            assert got == _paper_parity(f, g, i, j, n, seed) == 1, (i, j, seed)


def test_crossing_reports_are_pinned() -> None:
    # sha256 prefix of the crossings (s, t and point) of separated pairs;
    # any change that must leave the parity layer's output unchanged has
    # to keep it
    lines = []
    for name in sorted(PAIRS):
        f, g, iv = PAIRS[name]
        for n in (3, 5, 7):
            for seed in (None, 0, 3):
                rng = None if seed is None else random.Random(seed)
                p, q = n_approximation_pair(f, g, iv, iv, n, rng)
                rep = crossing_count(p, q)
                lines.append(
                    f"{name} n={n} seed={seed} count={rep.count}"
                    f" |p|={len(p)} |q|={len(q)}"
                )
                lines += [f"{s} {t} {z.x} {z.y}" for s, t, z in rep.crossings]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest[:16] == "0511b7c6760aafb1"
