"""Refinement pipeline tests: parity-preserving interval shrinking,
nested certificates, posterior verification and point extraction.

Post-conditions on the builtin pairs are checked exactly: the extended
diagonal images are piecewise-linear with known breakpoints, so image
inclusions reduce to rational point-to-segment distances.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemeet.refine as refine_module
from curvemeet import (
    Certificate,
    PointApproximation,
    PolylinePath,
    RefinementRecord,
    Segment,
    Side,
    curved_pair,
    diagonal_pair,
    extend,
    extract_point,
    function_parity,
    interval,
    pt,
    refine_sequence,
    shrink_first,
    shrink_pair,
    sq_dist_point_segment,
    verify_certificate,
)
from curvemeet.errors import (
    InvariantViolation,
    NotConverged,
    PreconditionViolated,
)
from curvemeet.exact_geom import Interval, Point

F = Fraction
FULL = interval(-1, 2)
UNIT = interval(0, 1)

PHI, PSI = diagonal_pair()
F_EXT = extend(PHI, Side.LOWER)
G_EXT = extend(PSI, Side.UPPER)


def _f_point(s: F) -> Point:
    # extended first diagonal: flat tails at height 0 and 1
    if s <= 0:
        return pt(s, 0)
    if s >= 1:
        return pt(s, 1)
    return pt(s, s)


def _g_point(t: F) -> Point:
    # extended anti-diagonal: flat tails at height 1 and 0
    if t <= 0:
        return pt(t, 1)
    if t >= 1:
        return pt(t, 0)
    return pt(t, 1 - t)


def _chain(point_of, iv: Interval) -> list[Segment]:
    # exact image polygon over iv; both builtins bend only at 0 and 1
    cuts = sorted({iv.lo, iv.hi, *(c for c in (F(0), F(1)) if iv.lo < c < iv.hi)})
    return [Segment(point_of(a), point_of(b)) for a, b in zip(cuts, cuts[1:])]


def _sq_to_chain(z: Point, chain: list[Segment]) -> F:
    return min(sq_dist_point_segment(z, seg) for seg in chain)


def _dense(iv: Interval, count: int) -> list[F]:
    step = iv.width() / count
    return [iv.lo + k * step for k in range(count + 1)]


def _assert_mutual_neighborhoods(i: Interval, j: Interval, radius: F) -> None:
    g_image = _chain(_g_point, j)
    for s in _dense(i, 64):
        assert _sq_to_chain(_f_point(s), g_image) < radius * radius
    f_image = _chain(_f_point, i)
    for t in _dense(j, 64):
        assert _sq_to_chain(_g_point(t), f_image) < radius * radius


# ------------------------------------------------------------ shrink steps


def test_shrink_keeps_center_and_tightens_image() -> None:
    k = shrink_first(F_EXT, G_EXT, FULL, FULL, 2)
    assert FULL.contains_interval(k)
    assert F(1, 2) in k
    # f's image over k sits strictly inside the open 1/4-neighborhood
    g_image = _chain(_g_point, FULL)
    for s in _dense(k, 64):
        assert _sq_to_chain(_f_point(s), g_image) < F(1, 16)
    assert function_parity(F_EXT, G_EXT, k, FULL) == 1


def test_shrink_requires_odd_parity_window() -> None:
    far_i = interval(-1, F(-1, 2))
    far_j = interval(F(3, 2), 2)
    with pytest.raises(PreconditionViolated):
        shrink_first(F_EXT, G_EXT, far_i, far_j, 4)


def test_shrink_guards_endpoint_clearance() -> None:
    # f(1/2) lies on g's image, so d_0 > 2^-n/2 must fail even when the
    # caller vouches for the parity and clearance preconditions
    touching = interval(F(1, 2), 2)
    with pytest.raises(PreconditionViolated):
        shrink_first(
            F_EXT, G_EXT, touching, FULL, 1, skip_precondition_checks=True
        )


def test_shrink_without_an_odd_run_raises(monkeypatch) -> None:
    # with every parity count even, each low run is tried and rejected,
    # and the loop ends in the invariant failure
    tried = []

    def even(f, g, i, j, *args, **kwargs):
        tried.append(i)
        return 0

    monkeypatch.setattr(refine_module, "function_parity", even)
    with pytest.raises(InvariantViolation, match="no low-distance run"):
        shrink_first(F_EXT, G_EXT, FULL, FULL, 2, skip_precondition_checks=True)
    assert tried


def test_pair_shrink_trivial_radius() -> None:
    i1, j1 = shrink_pair(F_EXT, G_EXT, FULL, FULL, 0)
    assert FULL.contains_interval(i1) and FULL.contains_interval(j1)
    _assert_mutual_neighborhoods(i1, j1, F(1))
    assert function_parity(F_EXT, G_EXT, i1, j1) == 1


# ------------------------------------------------- two-round certificates


@pytest.fixture(scope="module")
def cert2() -> Certificate:
    return refine_sequence(PHI, PSI, 2, verify_base_parity=True)


def test_two_round_certificate_structure(cert2: Certificate) -> None:
    assert [rec.m for rec in cert2.records] == [0, 1, 2]
    assert cert2.records[0] == RefinementRecord(0, FULL, FULL)
    for prev, rec in zip(cert2.records, cert2.records[1:]):
        assert prev.i.contains_interval(rec.i)
        assert prev.j.contains_interval(rec.j)
    assert cert2.s_phi == cert2.final.i.clip(UNIT)
    assert cert2.s_psi == cert2.final.j.clip(UNIT)
    assert F(1, 2) in cert2.s_phi
    assert F(1, 2) in cert2.s_psi


def test_round_neighborhoods_hold_exactly(cert2: Certificate) -> None:
    # round m places f's image within 2^-(m-1) of the previous g window
    # and g's new image within 2^-m of the new f window
    for prev, rec in zip(cert2.records, cert2.records[1:]):
        g_prev = _chain(_g_point, prev.j)
        r_prev = F(1, 2 ** (rec.m - 1))
        for s in _dense(rec.i, 64):
            assert _sq_to_chain(_f_point(s), g_prev) < r_prev * r_prev
        f_cur = _chain(_f_point, rec.i)
        r_cur = F(1, 2**rec.m)
        for t in _dense(rec.j, 64):
            assert _sq_to_chain(_g_point(t), f_cur) < r_cur * r_cur


def test_every_record_parity_rechecks(cert2: Certificate) -> None:
    for rec in cert2.records[1:]:
        assert function_parity(F_EXT, G_EXT, rec.i, rec.j) == 1


def test_refinement_is_deterministic(cert2: Certificate) -> None:
    # the base-parity check is read-only: records must come out identical
    assert refine_sequence(PHI, PSI, 2) == cert2


def test_posterior_verification_accepts(cert2: Certificate) -> None:
    verify_certificate(cert2, PHI, PSI)


def test_zero_rounds_give_single_base_record() -> None:
    cert = refine_sequence(PHI, PSI, 0)
    assert cert.records == (RefinementRecord(0, FULL, FULL),)
    assert cert.s_phi == UNIT and cert.s_psi == UNIT


# ------------------------------------------------------- deep refinement


@pytest.fixture(scope="module")
def cert10() -> Certificate:
    return refine_sequence(PHI, PSI, 10)


def test_deep_refinement_pins_center(cert10: Certificate) -> None:
    assert len(cert10.records) == 11
    for rec in cert10.records:
        assert F(1, 2) in rec.i
        assert F(1, 2) in rec.j
    # every surviving phi parameter maps within 2^-8 of the crossing;
    # |phi(s) - (1/2,1/2)|^2 = 2 (s - 1/2)^2 is convex, but sample
    # densely anyway on top of the exact endpoint checks
    bound = F(1, 2**16)
    for s in _dense(cert10.s_phi, 64):
        assert 2 * (s - F(1, 2)) ** 2 <= bound


def test_deep_certificate_survives_dense_verification(
    cert10: Certificate,
) -> None:
    verify_certificate(cert10, PHI, PSI)


def test_extraction_hits_known_crossing(cert10: Certificate) -> None:
    ball = extract_point(cert10, PHI, F(1, 64))
    assert ball.radius <= F(1, 64)
    center_err = (ball.center - pt(F(1, 2), F(1, 2))).sq_norm()
    assert center_err <= F(1, 64) ** 2


@given(k=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_extraction_radius_meets_target(cert10: Certificate, k: int) -> None:
    eps = F(1, 2**k)
    ball = extract_point(cert10, PHI, eps)
    assert ball.radius <= eps
    tighter = extract_point(cert10, PHI, eps / 2)
    assert tighter.level >= ball.level


def test_extraction_trivial_radius() -> None:
    cert = refine_sequence(PHI, PSI, 0)
    ball = extract_point(cert, PHI, 2)
    assert isinstance(ball, PointApproximation)
    assert ball.radius <= 2
    assert ball.level == 0


def test_extraction_requires_positive_radius() -> None:
    cert = refine_sequence(PHI, PSI, 0)
    with pytest.raises(ValueError):
        extract_point(cert, PHI, 0)
    with pytest.raises(ValueError):
        extract_point(cert, PHI, -1)


# --------------------------------------------- non-unique intersections


def test_extraction_detects_coincidence_zone() -> None:
    # the middle leg rides the first diagonal, so the intersection is a
    # whole segment; any parity-1 window spans it and radii stall
    psi_c = PolylinePath(
        [
            (0, (0, 1)),
            (F(1, 4), (F(5, 16), F(5, 16))),
            (F(3, 4), (F(11, 16), F(11, 16))),
            (1, (1, 0)),
        ]
    )
    i_in = interval(F(1, 4), F(3, 4))
    j_in = interval(F(3, 16), F(13, 16))
    cert = Certificate(
        (
            RefinementRecord(0, FULL, FULL),
            RefinementRecord(1, i_in, j_in),
            RefinementRecord(2, i_in, j_in),
        ),
        i_in,
        j_in,
    )
    # the stalled chain is still a genuine certificate for this pair
    verify_certificate(cert, PHI, psi_c)
    assert function_parity(F_EXT, extend(psi_c, Side.UPPER), i_in, j_in) == 1
    with pytest.raises(NotConverged):
        extract_point(cert, PHI, F(1, 2**20))


# ------------------------------------------------ certificate validation


def test_posterior_verification_catches_tampering() -> None:
    # disjoint far windows cannot satisfy any neighborhood radius
    fake = Certificate(
        (
            RefinementRecord(0, FULL, FULL),
            RefinementRecord(1, interval(-1, F(-7, 8)), interval(F(15, 8), 2)),
        ),
        interval(0, 0),
        interval(1, 1),
    )
    with pytest.raises(InvariantViolation):
        verify_certificate(fake, PHI, PSI)


def _ledge(height: Fraction, side: Side) -> PolylinePath:
    """A corner-to-corner polyline that runs level at height over the
    parameters [1/4, 3/4], from x = 1/4 to 3/4."""
    start, end = ((0, 0), (1, 1)) if side is Side.LOWER else ((0, 1), (1, 0))
    mid = [(F(1, 4), (F(1, 4), height)), (F(3, 4), (F(3, 4), height))]
    return PolylinePath([(0, start), *mid, (1, end)])


@pytest.mark.parametrize("gap", [F(11, 20), F(1, 2) - F(5, 2**7)])
def test_verification_proves_the_radius_each_record_claims(gap) -> None:
    # record 1 claims that the two ledges over [1/4, 3/4], gap apart,
    # lie within 2^-1 of each other.  At 1.1 * 2^-1 the claim is false,
    # though within 2^-1 + 6 * 2^-6, the sampling error of the paper's
    # tracks, so only a check at the radius less the samples' own error,
    # 2^-1 - 2.5 * 2^-6, refuses it; at that allowance the claim holds
    phi, psi = _ledge(F(0), Side.LOWER), _ledge(gap, Side.UPPER)
    ledge = interval(F(1, 4), F(3, 4))
    cert = Certificate(
        (RefinementRecord(0, FULL, FULL), RefinementRecord(1, ledge, ledge)),
        ledge,
        ledge,
    )
    if gap > F(1, 2):
        assert gap < F(1, 2) + 6 * F(1, 2**6)
        with pytest.raises(InvariantViolation, match="radius 2\\^-1 fails"):
            verify_certificate(cert, phi, psi)
    else:
        verify_certificate(cert, phi, psi)


def test_certificate_rejects_malformed_chains() -> None:
    with pytest.raises(ValueError):
        Certificate((), UNIT, UNIT)
    with pytest.raises(ValueError):
        Certificate((RefinementRecord(1, FULL, FULL),), UNIT, UNIT)
    with pytest.raises(ValueError):
        Certificate(
            (
                RefinementRecord(0, interval(0, 1), FULL),
                RefinementRecord(1, interval(-1, 0), FULL),
            ),
            UNIT,
            UNIT,
        )
    with pytest.raises(ValueError):
        Certificate(
            (RefinementRecord(0, FULL, FULL),), interval(-1, 0), UNIT
        )
    with pytest.raises(ValueError):
        RefinementRecord(-1, FULL, FULL)


# ----------------------------------------------------------- curved pair

# crossing of the builtin curved pair computed by the float subdivision
# solver in subdivision_oracle.py, frozen to ten decimals
X_STAR = pt(F("0.2741969921"), F("0.5665926066"))
S_STAR = F("0.4203947993")
T_STAR = F("0.2741969921")


def test_curved_certificate_tracks_solver_crossing() -> None:
    phi, psi = curved_pair()
    cert = refine_sequence(phi, psi, 5)
    verify_certificate(cert, phi, psi)
    assert S_STAR in cert.s_phi
    assert T_STAR in cert.s_psi
    # after M rounds both final images sit within 2^-(M-4) of the
    # solver's crossing; Bezier evaluation below is exact
    tol_sq = F(1, 2) ** 2
    for s in _dense(cert.s_phi, 32):
        assert (phi.eval_approx(s, 0) - X_STAR).sq_norm() < tol_sq
    for t in _dense(cert.s_psi, 32):
        assert (psi.eval_approx(t, 0) - X_STAR).sq_norm() < tol_sq
