import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemeet import (
    GridMismatch,
    OutOfDomain,
    SegKind,
    Segment,
    Track,
    classify_segment_pair,
    eval_track,
    make_track,
    perturb_to_separated,
    pt,
    sup_track_distance,
    weakly_separated,
)
from curvemeet.track import full_line_set, line_set, vertex_set

from gen import rand_track, separated_pair, zigzag_track
from ref_track import ref_perturb_to_separated

DIAG = make_track([(0, (0, 0)), (1, (1, 1))])
ANTI = make_track([(0, (0, 1)), (1, (1, 0))])

coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def tracks(draw, min_len: int = 2, max_len: int = 6) -> Track:
    k = draw(st.integers(min_value=min_len, max_value=max_len))
    params = sorted(draw(st.sets(st.integers(0, 40), min_size=k, max_size=k)))
    pts = []
    for _ in range(k):
        p = draw(
            st.tuples(coords, coords).filter(
                lambda c: not pts or c != pts[-1]
            )
        )
        pts.append(p)
    return make_track(list(zip(params, pts)))


# ------------------------------------------------------------ construction


def test_construction_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        make_track([(0, (0, 0))])
    with pytest.raises(ValueError):
        make_track([(0, (0, 0)), (0, (1, 1))])
    with pytest.raises(ValueError):
        make_track([(1, (0, 0)), (0, (1, 1))])
    with pytest.raises(ValueError):
        make_track([(0, (0, 0)), (1, (0, 0))])


def test_repeated_nonadjacent_vertices_allowed() -> None:
    p = make_track([(0, (0, 0)), (1, (1, 0)), (2, (0, 0))])
    assert vertex_set(p) == {pt(0, 0), pt(1, 0)}


# ------------------------------------------------------------- evaluation


def test_eval_examples() -> None:
    assert eval_track(DIAG, Fraction(1, 2)) == pt("1/2", "1/2")
    p = make_track([(0, (0, 0)), (2, (4, 0))])
    assert eval_track(p, Fraction(1, 2)) == pt(1, 0)
    with pytest.raises(OutOfDomain):
        eval_track(p, Fraction(-1, 10))
    with pytest.raises(OutOfDomain):
        eval_track(p, Fraction(21, 10))


@given(tracks())
def test_eval_hits_every_vertex(p: Track) -> None:
    for s, x in p.entries:
        assert eval_track(p, s) == x


@given(tracks(), st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_redundant_vertex_keeps_the_path(p: Track, frac: Fraction) -> None:
    # inserting (t, h_p(t)) must not change the evaluated path anywhere
    lo, hi = p.domain()
    t = lo + (hi - lo) * frac
    x = eval_track(p, t)
    if any(t == s for s, _ in p.entries):
        return
    i = max(k for k, (s, _) in enumerate(p.entries) if s < t)
    if x == p.entries[i][1] or x == p.entries[i + 1][1]:
        return
    entries = list(p.entries)
    entries.insert(i + 1, (t, x))
    q = Track(tuple(entries))
    rng = random.Random(99)
    for _ in range(100):
        s = lo + (hi - lo) * Fraction(rng.randint(0, 512), 512)
        assert eval_track(p, s) == eval_track(q, s)


# ------------------------------------------------------- vertex/line sets


def test_vertex_and_line_set_examples() -> None:
    assert len(vertex_set(DIAG)) == 2
    assert len(line_set(DIAG)) == 1
    collinear = make_track([(0, (0, 0)), (1, (1, 1)), (2, (2, 2))])
    assert len(line_set(collinear)) == 1
    generic = make_track([(0, (0, 0)), (1, (1, 0)), (2, (1, 1)), (3, (0, 2))])
    assert len(vertex_set(generic)) == 4
    assert len(full_line_set(generic)) == 6
    assert line_set(generic) <= full_line_set(generic)


# --------------------------------------------------------- weak separation


def test_weak_separation_examples() -> None:
    assert weakly_separated(DIAG, ANTI)
    shares_line = make_track([(0, (0, 0)), (1, (2, 2))])
    assert not weakly_separated(DIAG, shares_line)
    assert not weakly_separated(DIAG, DIAG)


def test_separated_pairs_have_no_degenerate_contacts() -> None:
    # under weak separation every cross-track segment pair is either
    # disjoint or a proper crossing
    rng = random.Random(7)
    for k in range(40):
        p, q = separated_pair(rng, rich=(k % 2 == 0))
        pp, qq = p.points, q.points
        for i in range(len(pp) - 1):
            s1 = Segment(pp[i], pp[i + 1])
            for j in range(len(qq) - 1):
                kind = classify_segment_pair(s1, Segment(qq[j], qq[j + 1])).kind
                assert kind in (SegKind.DISJOINT, SegKind.PROPER_CROSSING)


# ------------------------------------------------------------ sup distance


def test_sup_distance_examples() -> None:
    assert sup_track_distance(DIAG, DIAG) == 0
    shifted = make_track([(0, (3, 4)), (1, (1, 1))])
    assert sup_track_distance(DIAG, shifted) == 25
    with pytest.raises(GridMismatch):
        sup_track_distance(DIAG, make_track([(0, (0, 0)), (2, (1, 1))]))


@given(tracks(), st.integers(0, 2**32))
def test_sup_distance_bounds_dense_samples(p: Track, seed: int) -> None:
    rng = random.Random(seed)
    moved = []
    prev = None
    for s, x in p.entries:
        y = pt(
            x.x + Fraction(rng.randint(-8, 8), 16),
            x.y + Fraction(rng.randint(-8, 8), 16),
        )
        if y == prev:
            y = pt(y.x + Fraction(1, 32), y.y)
        moved.append((s, y))
        prev = y
    try:
        q = make_track(moved)
    except ValueError:
        return
    bound = sup_track_distance(p, q)
    lo, hi = p.domain()
    for k in range(100):
        s = lo + (hi - lo) * Fraction(k, 99)
        d = eval_track(p, s) - eval_track(q, s)
        assert d.sq_norm() <= bound


# ------------------------------------------------------------ perturbation


def test_perturb_identity_when_already_separated() -> None:
    out = perturb_to_separated(DIAG, ANTI, ANTI, Fraction(1, 4))
    assert out == DIAG


def test_perturb_repairs_vertex_on_line() -> None:
    bad = make_track([(0, (0, 0)), (1, ("1/2", "1/2")), (2, (2, 2))])
    delta = Fraction(1, 2**10)
    out = perturb_to_separated(bad, ANTI, DIAG, delta)
    assert weakly_separated(out, ANTI)
    assert weakly_separated(out, DIAG)
    assert out.params == bad.params
    assert sup_track_distance(bad, out) < delta * delta


def test_perturb_respects_tiny_budgets() -> None:
    bad = make_track([(0, (0, 1)), (1, ("1/3", "2/3")), (2, (1, 0))])
    delta = Fraction(1, 2**40)
    out = perturb_to_separated(bad, DIAG, DIAG, delta)
    assert weakly_separated(out, DIAG)
    assert sup_track_distance(bad, out) < Fraction(1, 2**80)


def test_perturb_random_configurations() -> None:
    rng = random.Random(31337)
    done = 0
    while done < 25:
        rows = [
            (i, (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4)))
            for i in range(4)
        ]
        try:
            p = make_track(rows)
        except ValueError:
            continue
        q = make_track(
            [(i, (Fraction(i), Fraction(rng.randint(-4, 4), 4))) for i in range(3)]
        )
        delta = Fraction(1, 64)
        out = perturb_to_separated(p, q, q, delta)
        assert weakly_separated(out, q)
        assert sup_track_distance(p, out) < delta * delta
        done += 1


def _on_lines(rng: random.Random, q: Track, k: int) -> Track:
    # k vertices on lines of q's segments, inside and beyond them
    pts = q.points
    rows = []
    for s in range(k):
        i = rng.randrange(len(pts) - 1)
        a, b = pts[i], pts[i + 1]
        rows.append((s, a + (b - a).scale(Fraction(rng.randint(-8, 16), 8))))
    return make_track(rows)


def test_perturb_matches_fraction_reference() -> None:
    # the integer placement against the Point spiral with Line/orient
    # tests: random, rich (zigzag) and on-line tracks, with dyadic and
    # non-dyadic deltas
    rng = random.Random(4711)
    deltas = [Fraction(1, 64), Fraction(1, 3), Fraction(2, 7), Fraction(5)]
    deltas += [Fraction(1, 10**6), Fraction(3, 2**30)]
    moved = 0
    for trial in range(300):
        kind = trial % 3
        if kind == 0:
            p, q, qprime = rand_track(rng), rand_track(rng), rand_track(rng)
        elif kind == 1:
            p, q = zigzag_track(rng, True), zigzag_track(rng, False)
            qprime = separated_pair(rng, rich=True)[rng.randrange(2)]
        else:
            q = zigzag_track(rng, rng.random() < 0.5)
            qprime = q if rng.random() < 0.5 else rand_track(rng)
            try:
                p = _on_lines(rng, q, rng.randint(2, 6))
            except ValueError:  # two equal consecutive vertices
                continue
        delta = rng.choice(deltas)
        got = perturb_to_separated(p, q, qprime, delta)
        assert got.entries == ref_perturb_to_separated(p, q, qprime, delta).entries
        moved += got.entries != p.entries
    assert moved > 100  # 122 of 300
