import random
import time
from fractions import Fraction

import pytest

from curvemeet import (
    CrossingReport,
    EffortExhausted,
    NotSeparated,
    PolylinePath,
    Side,
    alpha_enclosure,
    certify_alpha,
    crossing_count,
    diagonal_pair,
    eval_track,
    extend,
    interval,
    make_track,
    n_approximation_pair,
    pow2,
    pt,
    sq_dist_point_segment,
    Segment,
    function_parity,
)

from ball_oracle import ball_crossings
from gen import separated_pair, triangle_move_config

DIAG = make_track([(0, (0, 0)), (1, (1, 1))])
ANTI = make_track([(0, (0, 1)), (1, (1, 0))])
F_EXT = extend(diagonal_pair()[0], Side.LOWER)
G_EXT = extend(diagonal_pair()[1], Side.UPPER)
FULL = interval(-1, 2)


def as_entries(track) -> list:
    return [(s, (z.x, z.y)) for s, z in track.entries]


# ---------------------------------------------------------- crossing count


def test_diagonal_crossing_report() -> None:
    rep = crossing_count(DIAG, ANTI)
    assert rep.count == 1 and rep.parity == 1
    (s, t, x) = rep.crossings[0]
    assert (s, t) == (Fraction(1, 2), Fraction(1, 2))
    assert x == pt("1/2", "1/2")


def test_disjoint_tracks_report_zero() -> None:
    far = make_track([(0, (0, 3)), (1, (1, 3))])
    rep = crossing_count(DIAG, far)
    assert rep.count == 0 and rep.parity == 0 and rep.crossings == ()


def test_zigzag_crosses_three_times() -> None:
    zig = make_track(
        [(0, (0, 1)), ("1/3", (1, -1)), ("2/3", (2, 1)), (1, (3, -1))]
    )
    flat = make_track([(0, (-1, 0)), (1, (4, 0))])
    rep = crossing_count(zig, flat)
    oracle = ball_crossings(as_entries(zig), as_entries(flat))
    assert rep.count == len(oracle) == 3
    assert rep.parity == 1


def test_crossing_count_requires_separation() -> None:
    shares = make_track([(0, (0, 0)), (1, (2, 2))])
    with pytest.raises(NotSeparated):
        crossing_count(DIAG, shares)


def test_report_invariants_and_ordering() -> None:
    rng = random.Random(11)
    for k in range(30):
        p, q = separated_pair(rng, rich=(k % 2 == 0))
        rep = crossing_count(p, q)
        assert rep.count == len(rep.crossings)
        assert rep.parity == rep.count % 2
        s_lo, s_hi = p.domain()
        t_lo, t_hi = q.domain()
        for s, t, x in rep.crossings:
            assert s_lo < s < s_hi and t_lo < t < t_hi
            assert eval_track(p, s) == x == eval_track(q, t)
        # symmetric in the pair
        assert crossing_count(q, p).count == rep.count


def test_report_consistency_is_enforced() -> None:
    with pytest.raises(ValueError):
        CrossingReport(crossings=(), count=1, parity=1)
    with pytest.raises(ValueError):
        CrossingReport(crossings=(), count=0, parity=1)


def test_agreement_with_ball_oracle() -> None:
    rng = random.Random(2024)
    for k in range(50):
        p, q = separated_pair(rng, rich=(k % 2 == 0))
        rep = crossing_count(p, q)
        oracle = ball_crossings(as_entries(p), as_entries(q))
        assert rep.count == len(oracle)
        assert [(s, t) for s, t, _ in rep.crossings] == [
            (s, t) for _, _, s, t, _ in oracle
        ]


def test_concatenation_at_a_split_vertex() -> None:
    # splitting p at a vertex off the other image adds crossing counts
    rng = random.Random(321)
    done = 0
    while done < 30:
        p, q = separated_pair(rng, rich=True)
        if len(p) < 3:
            continue
        mid = len(p) // 2
        v = p.points[mid]
        qq = q.points
        off = all(
            sq_dist_point_segment(v, Segment(qq[j], qq[j + 1])) > 0
            for j in range(len(qq) - 1)
        )
        if not off:
            continue
        p1 = make_track(p.entries[: mid + 1])
        p2 = make_track(p.entries[mid:])
        total = crossing_count(p, q).count
        assert total == crossing_count(p1, q).count + crossing_count(p2, q).count
        done += 1


def test_triangle_move_preserves_parity() -> None:
    rng = random.Random(555)
    for _ in range(20):
        p, q1, q2 = triangle_move_config(rng)
        assert crossing_count(p, q1).parity == crossing_count(p, q2).parity


# -------------------------------------------------------- alpha enclosures


def test_alpha_of_extended_diagonals_contains_one() -> None:
    enc = alpha_enclosure(F_EXT, G_EXT, FULL, FULL, 5)
    assert enc.lo <= 1 <= enc.hi
    assert enc.precision_used == 5


def test_alpha_cannot_certify_endpoint_on_curve() -> None:
    # f(1/2) = (1/2,1/2) lies on the other image, so lo must stay 0
    enc = alpha_enclosure(F_EXT, G_EXT, interval("1/2", 2), FULL, 6)
    assert enc.lo == 0
    assert enc.hi <= 13 * pow2(-6) + 1  # sanity: still a tight window


def test_alpha_width_on_disjoint_unit_separated_images() -> None:
    f = PolylinePath([(0, (0, 0)), (1, (1, 0))])
    g = PolylinePath([(0, (0, 2)), (1, (1, 2))])
    iv = interval(0, 1)
    for n in (4, 6, 8):
        enc = alpha_enclosure(f, g, iv, iv, n)
        assert enc.lo <= 2 <= enc.hi
        assert enc.hi - enc.lo <= 13 * pow2(-n)


def test_certify_alpha_gives_up_on_zero_clearance() -> None:
    with pytest.raises(EffortExhausted):
        certify_alpha(F_EXT, F_EXT, interval(0, 1), interval(0, 1), effort=10)


def test_zero_clearance_fails_fast_at_default_effort() -> None:
    # three-crossing pair: psi(1/2) = (1/2, 1/2) lies on phi's image, so
    # no probe can certify the clearance; the grid budget must stop the
    # probes, one bit apart, long before the default effort of 64
    phi = PolylinePath(
        [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
    )
    psi = PolylinePath([(0, (0, 1)), (1, (1, 0))])
    start = time.perf_counter()
    with pytest.raises(EffortExhausted):
        function_parity(phi, psi, interval("1/3", 1), interval(0, "1/2"))
    assert time.perf_counter() - start < 30


def test_certified_alpha_bounds_the_diagonal_value() -> None:
    enc = certify_alpha(F_EXT, G_EXT, FULL, FULL)
    assert 0 < enc.lo <= 1 <= enc.hi


# -------------------------------------------------------- function parity


def test_base_parity_is_one() -> None:
    assert function_parity(F_EXT, G_EXT, FULL, FULL, n=5) == 1
    assert function_parity(F_EXT, G_EXT, FULL, FULL) == 1


def test_far_windows_have_parity_zero() -> None:
    assert (
        function_parity(F_EXT, G_EXT, interval(-1, "-1/2"), interval("3/2", 2))
        == 0
    )


def test_parity_additivity_at_a_clear_split() -> None:
    # f(0) = (0,0) is off the other image, so parities add mod 2
    left = function_parity(F_EXT, G_EXT, interval(-1, 0), FULL)
    right = function_parity(F_EXT, G_EXT, interval(0, 2), FULL)
    whole = function_parity(F_EXT, G_EXT, FULL, FULL)
    assert (left + right) % 2 == whole == 1


def test_parity_is_stable_across_randomized_approximations() -> None:
    iv = interval("1/4", "3/4")
    seen = {
        crossing_count(
            *n_approximation_pair(F_EXT, G_EXT, iv, iv, 6, random.Random(seed))
        ).parity
        for seed in range(10)
    }
    assert seen == {1}
