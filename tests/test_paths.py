import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from ref_track import ref_validate

from curvemeet import (
    EndpointViolation,
    PolylinePath,
    PreconditionViolated,
    QuadBezierPath,
    Side,
    TablePath,
    curved_pair,
    diagonal_pair,
    dyadic_grid,
    eval_track,
    extend,
    interval,
    n_approximation,
    n_approximation_pair,
    pow2,
    pt,
    weakly_separated,
)
from curvemeet.errors import OutOfDomain
from curvemeet.exact_geom import Interval
from curvemeet.paths import _checked_bounds, _grid_bounds

DIAG_EXT = extend(diagonal_pair()[0], Side.LOWER)
ANTI_EXT = extend(diagonal_pair()[1], Side.UPPER)

unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=64)


# ------------------------------------------------------------ path oracles


def test_polyline_eval_is_exact() -> None:
    path = PolylinePath([(0, (0, 0)), ("1/2", (1, 0)), (1, (1, 1))])
    assert path.eval_approx(Fraction(1, 4), 3) == pt("1/2", 0)
    assert path.eval_approx(Fraction(3, 4), 60) == pt(1, "1/2")
    assert path.domain == interval(0, 1)
    with pytest.raises(ValueError):
        PolylinePath([(0, (0, 0))])
    with pytest.raises(ValueError):
        PolylinePath([(0, (0, 0)), (0, (1, 1))])


@given(unit_fracs)
def test_quad_bezier_matches_closed_form(t) -> None:
    path = QuadBezierPath(pt(0, 0), pt("1/5", "4/5"), pt(1, 1))
    u = 1 - t
    expect = pt(
        u * u * 0 + 2 * u * t * Fraction(1, 5) + t * t * 1,
        u * u * 0 + 2 * u * t * Fraction(4, 5) + t * t * 1,
    )
    assert path.eval_approx(t, 7) == expect


def test_table_path_modulus_validation() -> None:
    good = TablePath(
        [(0, (0, 0)), ("1/2", ("1/2", "1/2")), (1, (1, 1))], modulus_offset=1
    )
    good.validate()

    jumpy = TablePath(
        [(0, (0, 0)), (Fraction(1, 1024), (1, 1)), (1, (1, 1))],
        modulus_offset=0,
    )
    with pytest.raises(PreconditionViolated):
        jumpy.validate()

    flat_modulus = TablePath(
        [(0, (0, 0)), (1, (1, 1))], modulus_fn=lambda n: 5
    )
    with pytest.raises(PreconditionViolated):
        flat_modulus.validate()

    with pytest.raises(ValueError):
        TablePath([(0, (0, 0)), (1, (1, 1))])


def _ref_validate(path: TablePath, max_n: int = 64) -> str | None:
    """The all-pairs, all-precisions check; the refutation message or None."""
    entries = path.entries
    for i in range(len(entries)):
        ti, zi = entries[i]
        for j in range(i + 1, len(entries)):
            tj, zj = entries[j]
            sq = (zj - zi).sq_norm()
            for n in range(max_n):
                if tj - ti >= pow2(-path.modulus(n)):
                    break
                if sq >= pow2(-2 * n):
                    return f"samples at {ti} and {tj} refute the modulus at n={n}"
    return None


def test_table_validation_matches_all_pairs_reference() -> None:
    rng = random.Random(3)
    verdicts = set()
    for trial in range(120):
        rows = rng.randint(2, 30)
        params = sorted(rng.sample(range(4 * rows), rows))
        den = rng.choice((4, 16, 64, 100))
        step = Fraction(rng.randint(1, 6), den)
        entries = []
        z = pt(0, 0)
        for k in params:
            entries.append((Fraction(k, 4 * rows), z))
            z = z + pt(step * rng.randint(-3, 3), step * rng.randint(-3, 3))
        path = TablePath(entries, modulus_offset=rng.randint(0, 4))
        want = _ref_validate(path)
        verdicts.add(want is None)
        if want is None:
            path.validate()
        else:
            with pytest.raises(PreconditionViolated) as err:
                path.validate()
            assert str(err.value) == want, trial
    assert verdicts == {True, False}


def _outcome(check) -> str | None:
    """The PreconditionViolated message of check(), or None if it passes."""
    try:
        check()
    except PreconditionViolated as exc:
        return str(exc)
    return None


def test_table_validation_matches_the_fraction_loop() -> None:
    # random tables with pauses (repeated samples), plain offsets and
    # modulus functions, some of those not increasing (some only beyond
    # the checked precisions)
    rng = random.Random(11)
    outcomes = set()
    for trial in range(300):
        rows = rng.randint(2, 40)
        params = sorted(rng.sample(range(1, 50 * rows), rows))
        pden = rng.choice((50 * rows, 3 * 2**20, 7**9))
        vden = rng.choice((1, 12, 2**30, 3**15))
        entries, z = [], pt(0, 0)
        for k in params:
            entries.append((Fraction(k, pden), z))
            if rng.random() < 0.7:  # else the curve pauses
                dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
                z = z + pt(Fraction(dx, vden), Fraction(dy, vden))
        kind = rng.randrange(3)
        if kind == 0:
            path = TablePath(entries, modulus_offset=rng.randint(0, 40))
        else:
            steps = [rng.randint(1, 3) for _ in range(100)]
            if kind == 2:  # one step that does not increase
                steps[rng.randrange(80)] = rng.randint(-2, 0)
            mods = [rng.randint(0, 30)]
            for step in steps:
                mods.append(mods[-1] + step)
            path = TablePath(entries, modulus_fn=mods.__getitem__)
        want = _outcome(lambda: ref_validate(path))
        assert _outcome(path.validate) == want, trial
        outcomes.add(want if want is None else want.split()[0])
    assert outcomes == {None, "samples", "modulus"}


@given(st.integers(min_value=0, max_value=30))
def test_moduli_increase(n: int) -> None:
    for path in (*diagonal_pair(), *curved_pair(), DIAG_EXT, ANTI_EXT):
        assert path.modulus(n + 1) > path.modulus(n)


# --------------------------------------------------------------- extension


def test_extension_values() -> None:
    f, g = DIAG_EXT, ANTI_EXT
    assert f.domain == interval(-1, 2)
    assert f.eval_approx(Fraction(-1), 20) == pt(-1, 0)
    assert f.eval_approx(Fraction(1, 2), 20) == pt("1/2", "1/2")
    assert f.eval_approx(Fraction(3, 2), 20) == pt("3/2", 1)
    assert g.eval_approx(Fraction(-1), 20) == pt(-1, 1)
    assert g.eval_approx(Fraction(2), 20) == pt(2, 0)


def test_extension_rejects_wrong_endpoints() -> None:
    off_corner = PolylinePath([(0, ("1/4", 0)), (1, (1, 1))])
    with pytest.raises(EndpointViolation):
        extend(off_corner, Side.LOWER)
    ends_wrong = PolylinePath([(0, (0, 1)), (1, (1, 1))])
    with pytest.raises(EndpointViolation):
        extend(ends_wrong, Side.UPPER)


@given(unit_fracs)
def test_extension_agrees_with_inner_path(s) -> None:
    phi = diagonal_pair()[0]
    assert DIAG_EXT.eval_approx(s, 25) == phi.eval_approx(s, 25)


def test_tail_distances_match_parameter_distance() -> None:
    # straight tails move with unit speed, so the modulus holds exactly
    rng = random.Random(5)
    for _ in range(50):
        t = Fraction(rng.randint(-64, 0), 64)
        u = Fraction(rng.randint(-64, 0), 64)
        d = DIAG_EXT.eval_approx(t, 30) - DIAG_EXT.eval_approx(u, 30)
        assert d.sq_norm() == (t - u) ** 2


def test_known_crossing_survives_extension() -> None:
    s = Fraction(1, 2)
    assert DIAG_EXT.eval_approx(s, 30) == ANTI_EXT.eval_approx(s, 30)


# ------------------------------------------------------------------- grids


@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value="1/8", max_value=3, max_denominator=16),
    st.integers(min_value=0, max_value=10),
)
def test_dyadic_grid_contract(lo, width, md) -> None:
    hi = lo + width
    grid = dyadic_grid(lo, hi, md)
    assert grid[0] == lo and grid[-1] == hi
    for a, b in zip(grid, grid[1:]):
        assert 0 < b - a < pow2(-md)


# domains with negative, odd and dyadic ends
DOMAIN_CURVES = [
    DIAG_EXT,
    curved_pair()[0],
    TablePath([("-3/7", (0, 0)), ("5/9", (1, "1/3")), ("11/9", (1, 1))], modulus_offset=3),
]


@pytest.mark.parametrize("f", DOMAIN_CURVES, ids=["extended", "bezier", "table"])
def test_the_domain_check_takes_the_domain_ends_and_nothing_past_them(f) -> None:
    lo, hi = f.domain.lo, f.domain.hi
    eps = Fraction(1, 2**61 - 1)
    mid = (lo + hi) / 2
    for w in (f.domain, Interval(lo, mid), Interval(mid, hi)):
        assert _checked_bounds(f, w, 3) == _grid_bounds(w.lo, w.hi, 3)
    for w in (
        Interval(lo - eps, hi),
        Interval(lo, hi + eps),
        Interval(lo - 1, lo - eps),
        Interval(hi + eps, hi + 1),
    ):
        with pytest.raises(OutOfDomain) as caught:
            _checked_bounds(f, w, 3)
        assert str(caught.value) == f"{w} is not inside {f.domain}"


# --------------------------------------------------------- n-approximation


def check_approximation(path, iv, n: int, track) -> None:
    gap = pow2(-path.modulus(n))
    err = pow2(-n) ** 2
    assert track.params[0] == iv.lo and track.params[-1] == iv.hi
    for a, b in zip(track.params, track.params[1:]):
        assert b - a < gap
    for s, x in track.entries:
        true = path.eval_approx(s, 60)
        assert (x - true).sq_norm() < err


def test_approximation_of_exact_paths() -> None:
    iv = interval(-1, 2)
    for n in (3, 5):
        track = n_approximation(DIAG_EXT, iv, n)
        check_approximation(DIAG_EXT, iv, n, track)


def test_approximation_bounds_hold_densely() -> None:
    # adjacent vertices closer than 3*2^-n, path deviation below 5*2^-n
    f = extend(curved_pair()[0], Side.LOWER)
    iv = interval(-1, 2)
    n = 5
    track = n_approximation(f, iv, n)
    adj = (3 * pow2(-n)) ** 2
    dev = (5 * pow2(-n)) ** 2
    for a, b in zip(track.points, track.points[1:]):
        assert (b - a).sq_norm() < adj
    lo, hi = track.domain()
    for k in range(500):
        s = lo + (hi - lo) * Fraction(k, 499)
        d = f.eval_approx(s, 60) - eval_track(track, s)
        assert d.sq_norm() < dev


def test_approximation_nudges_stalled_paths() -> None:
    # a path that pauses still yields pairwise-distinct track vertices
    pausing = PolylinePath(
        [(0, (0, 0)), ("1/3", ("1/2", "1/2")), ("2/3", ("1/2", "1/2")), (1, (1, 1))]
    )
    n = 4
    track = n_approximation(pausing, interval(0, 1), n)
    for a, b in zip(track.points, track.points[1:]):
        assert a != b
    check_approximation(pausing, interval(0, 1), n, track)


def test_approximation_pair_is_separated_and_deterministic() -> None:
    iv = interval(-1, 2)
    p1, q1 = n_approximation_pair(DIAG_EXT, ANTI_EXT, iv, iv, 5)
    assert weakly_separated(p1, q1)
    p2, q2 = n_approximation_pair(DIAG_EXT, ANTI_EXT, iv, iv, 5)
    assert (p1, q1) == (p2, q2)
    check_approximation(DIAG_EXT, iv, 5, p1)
    check_approximation(ANTI_EXT, iv, 5, q1)


def test_approximation_pair_of_one_path_with_itself() -> None:
    f = DIAG_EXT
    p, q = n_approximation_pair(f, f, interval(0, "3/4"), interval("1/4", 1), 4)
    assert weakly_separated(p, q)


def test_randomized_pairs_stay_separated() -> None:
    iv = interval(-1, 2)
    for seed in range(5):
        rng = random.Random(seed)
        p, q = n_approximation_pair(DIAG_EXT, ANTI_EXT, iv, iv, 4, rng=rng)
        assert weakly_separated(p, q)
        check_approximation(DIAG_EXT, iv, 4, p)
        check_approximation(ANTI_EXT, iv, 4, q)
